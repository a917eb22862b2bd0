module Bs = Ctg_prng.Bitstream
module Obs = Ctg_obs

(* Per-stage latency goes to the process registry so the sign pipeline is
   visible in both views: spans (one per stage per attempt) and mergeable
   histograms keyed by stage. *)
(* Stage names are a handful of static strings and the registry lookup
   costs ~150ns per call, so handles are memoized behind a CAS list (a
   losing racer publishes a duplicate entry for the same registry-owned
   histogram, which is harmless). *)
let stage_histo_cache = Atomic.make []

let stage_histo stage =
  match List.assoc_opt stage (Atomic.get stage_histo_cache) with
  | Some h -> h
  | None ->
    let h =
      Obs.Registry.histo Obs.Registry.default
        ~labels:[ ("stage", stage) ]
        "falcon_sign_stage_ns"
    in
    let rec publish () =
      let cur = Atomic.get stage_histo_cache in
      match List.assoc_opt stage cur with
      | Some h' -> h'
      | None ->
        if Atomic.compare_and_set stage_histo_cache cur ((stage, h) :: cur)
        then h
        else publish ()
    in
    publish ()

let stage name f =
  let h = stage_histo name in
  let t0 = Obs.Clock.now_ns () in
  let v = Obs.Trace.with_span name ~cat:"falcon" f in
  Obs.Registry.observe h (Obs.Clock.now_ns () - t0);
  v

type signature = {
  salt : bytes;
  s1 : int array;
  s2 : int array;
  norm_sq : float;
  attempts : int;
}

type fault_hook = attempt:int -> s1:int array -> s2:int array -> int array * int array

(* Signatures rejected by the verify-after-sign countermeasure.  Nonzero
   means a computation fault was caught before anything left the signer. *)
let fault_rejects_counter =
  lazy
    (Obs.Registry.counter Obs.Registry.default
       "falcon_sign_fault_rejects_total")

let signature_norm_sq s1 s2 =
  let acc = ref 0.0 in
  let add s = Array.iter (fun c -> acc := !acc +. (float_of_int c *. float_of_int c)) s in
  add s1;
  add s2;
  !acc

let norm_bound_sq (params : Params.t) =
  (* Each of the 2N Gram-Schmidt coordinates carries error variance
     σ_b² + 1/12 ≈ 4.08 under the fixed σ_b = 2 base sampler, and
     Σ‖b̃_i‖² ≈ 2Nq for a balanced NTRU basis, so
     E‖s‖² ≈ 4.08 · 2Nq.  The 1.6 slack absorbs basis imbalance and the
     χ²-like spread; the ideal sampler's E‖s‖² = 2N·(1.17²q) sits far
     below the bound. *)
  let sigma_b = 2.0 in
  let per_coord = (sigma_b *. sigma_b) +. (1.0 /. 12.0) in
  let sum_gs = float_of_int (2 * params.Params.n * params.Params.q) in
  1.6 *. per_coord *. sum_gs

(* Verify-after-sign, the classic fault countermeasure: before a signature
   leaves the signer, check it against the *public* key exactly as a
   verifier would — recover s1 from s2 via h and demand it matches the s1
   the FFT pipeline produced.  A glitch anywhere in ffSampling, the FFT
   arithmetic or the rounding makes (s1, s2) inconsistent with the
   verification equation s1 + s2·h = c and is caught here; only faults
   that forge a *different valid* signature slip through, and those need
   the lattice problem solved.  (Inlined rather than calling {!Verify} —
   that module depends on this one for the norm helper.) *)
let consistent_with_public_key ~params ~h_ntt ~c ~s1 ~s2 =
  let n = params.Params.n in
  let plan = Ntt.plan n in
  if Array.length s1 <> n || Array.length s2 <> n || Array.length c <> n then
    false
  else begin
    (* s2's small centered coefficients lift inside the transform's copy
       pass; one allocation for the whole product. *)
    let s2h = Ntt.mul_with_forward plan s2 h_ntt in
    (* c and s2h are both in [0, q): the centered difference and the
       comparison run without branches (fresh data every signature would
       mispredict them) and without the divisions of the generic Zq
       helpers; [q / 2] is hoisted, as ocamlopt does not fold it here. *)
    let q = Zq.q in
    let half_q = q / 2 in
    let diff = ref 0 in
    for i = 0 to n - 1 do
      let d = Array.unsafe_get c i - Array.unsafe_get s2h i in
      let d = d + (q land (d asr 62)) in
      let d = d - (q land ((half_q - d) asr 62)) in
      diff := !diff lor (d lxor Array.unsafe_get s1 i)
    done;
    !diff = 0
  end

let sign ?fault_hook ?(check = true) kp base rng ~msg =
  let params = kp.Keygen.params in
  let n = params.Params.n in
  let qf = float_of_int params.Params.q in
  let bound = norm_bound_sq params in
  let b10, b11 = kp.Keygen.b1_fft in
  let b20, b21 = kp.Keygen.b2_fft in
  let rec attempt k =
    if k > params.Params.max_sign_attempts then
      failwith "Sign.sign: norm bound never met (miscalibrated?)";
    let salt = Bytes.create params.Params.salt_bytes in
    for i = 0 to Bytes.length salt - 1 do
      Bytes.set salt i (Char.chr (Bs.next_byte rng))
    done;
    let c = stage "hash_to_point" (fun () -> Hash_point.hash ~n ~salt ~msg) in
    let c_fft = Fftc.of_int_poly c in
    (* t = (c, 0)·B⁻¹ = (−c·F/q, c·f/q) for B = [[g, −f], [G, −F]]. *)
    let t0 = Fftc.scale (Fftc.mul c_fft kp.Keygen.big_f_fft) (-1.0 /. qf) in
    let t1 = Fftc.scale (Fftc.mul c_fft kp.Keygen.f_fft) (1.0 /. qf) in
    let z0, z1 =
      stage "ff_sampling" (fun () ->
          Ff_sampling.sample kp.Keygen.tree base rng ~t0 ~t1)
    in
    (* s = (t − z)·B: s1 over the first column (g, G), s2 over (−f, −F). *)
    let s1, s2 =
      stage "ntt" (fun () ->
          let d0 = Fftc.sub t0 z0 and d1 = Fftc.sub t1 z1 in
          let s1 =
            Fftc.round_to_int (Fftc.add (Fftc.mul d0 b10) (Fftc.mul d1 b20))
          in
          let s2 =
            Fftc.round_to_int (Fftc.add (Fftc.mul d0 b11) (Fftc.mul d1 b21))
          in
          (s1, s2))
    in
    (* The injection seam sits where a computation glitch would: between
       producing (s1, s2) and the output checks. *)
    let s1, s2 =
      match fault_hook with
      | Some f -> f ~attempt:k ~s1 ~s2
      | None -> (s1, s2)
    in
    let norm_sq = signature_norm_sq s1 s2 in
    if norm_sq > bound then attempt (k + 1)
    else if
      check
      && not
           (stage "verify_after_sign" (fun () ->
                consistent_with_public_key ~params ~h_ntt:kp.Keygen.h_ntt
                  ~c ~s1 ~s2))
    then begin
      (* Faulted signature: count it, burn the salt, try again.  Nothing
         inconsistent is ever returned to the caller. *)
      Obs.Registry.incr (Lazy.force fault_rejects_counter);
      attempt (k + 1)
    end
    else { salt; s1; s2; norm_sq; attempts = k }
  in
  attempt 1

let sign_many ?domains ?workforce ?lanes ?fault_hook ?check kp
    ~make_base ~seed ~msgs =
  let n = Array.length msgs in
  (match lanes with
  | Some l when Array.length l <> n ->
    invalid_arg "Sign.sign_many: lanes length must match msgs"
  | _ -> ());
  let lane_of i = match lanes with Some l -> l.(i) | None -> i in
  let out = Array.make n None in
  (* One lane and one fresh base sampler per message: the signature of
     message i is independent of scheduling and of the domain count.  A
     serving batch passes explicit [lanes] (assigned at enqueue time), so
     the signature of a request is also independent of which batch it
     landed in. *)
  let body i =
    let lane = lane_of i in
    Obs.Trace.with_span "sign" ~cat:"falcon"
      ~args:(fun () -> [ ("lane", string_of_int lane) ])
      (fun () ->
        (* Terminates the request's causal flow: the serving path starts a
           flow with id = lane at enqueue time, so the arrow lands on this
           per-message slice on whichever domain signed it. *)
        Obs.Trace.flow_end ~id:lane "sig"
          ~args:(fun () -> [ ("lane", string_of_int lane) ]);
        let rng = Ctg_engine.Stream_fork.bitstream ~seed ~lane () in
        let base = make_base () in
        out.(i) <- Some (sign ?fault_hook ?check kp base rng ~msg:msgs.(i)))
  in
  (match workforce with
  | Some w -> Ctg_engine.Workforce.run w ~n body
  | None ->
    (* A one-off batch spawns no more domains than it has messages, and
       none at all when one domain would do: it then signs here. *)
    let d = Option.value domains ~default:(Domain.recommended_domain_count ()) in
    if d < 1 then invalid_arg "Sign.sign_many: domains must be >= 1";
    if min d n <= 1 then
      for i = 0 to n - 1 do
        body i
      done
    else
      let w = Ctg_engine.Workforce.create ~domains:(min d n) () in
      Fun.protect
        ~finally:(fun () -> Ctg_engine.Workforce.shutdown w)
        (fun () -> Ctg_engine.Workforce.run w ~n body));
  Array.map
    (function Some s -> s | None -> failwith "Sign.sign_many: missing result")
    out
