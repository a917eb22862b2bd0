(* sign-512: Falcon-512 signing on one domain, Table 1's unit.

   End to end: signatures per second from Sign.sign_many ~domains:1 in
   fixed-size batches of seed-derived messages over one fixed keypair.  Every
   signature must pass Verify.verify (checked outside the timed calls).

   Traced: the sign stage histograms the library keeps
   (falcon_sign_stage_ns), a timing wrapper around the base sampler
   instance handed to make_base, allocation per signature, GC pauses, and
   the two-domain sign_many comparison that shows the shared ffSampling
   workspace defect (see NOTES.md). *)

open Common
module F = Ctg_falcon
module Sig = Ctg_samplers.Sampler_sig
module Clock = Ctg_obs.Clock

let params = F.Params.level2
let batch = 16
let reps = 3

let compile () =
  Ctg_engine.Registry.lookup (Ctg_engine.Registry.create ()) ~sigma:"2"
    ~precision:128 ~tail_cut:13 ()

(* Keys come from a fixed list, not from the seed: key generation time
   varies with the key, and set-up time must compare across seeds. *)
let keygen ~rep =
  F.Keygen.generate params
    (Ctg_engine.Stream_fork.bitstream ~seed:(Printf.sprintf "perfbench-key-%d" rep) ~lane:0 ())

let sign_seed seed = Printf.sprintf "perfbench-sign-%d" seed
let message ~seed i = Bytes.of_string (Printf.sprintf "perfbench sign-512 seed=%d msg=%d" seed i)

let base_of sampler () =
  F.Base_sampler.of_instance (Sig.of_bitsliced (Ctgauss.Sampler.clone sampler))

(* A base sampler whose every draw adds its wall time to [acc]. *)
let timed_base_of sampler acc () =
  let inst = Sig.of_bitsliced (Ctgauss.Sampler.clone sampler) in
  let sample_magnitude rng =
    let t0 = Clock.now_ns () in
    let v = inst.Sig.sample_magnitude rng in
    ignore (Atomic.fetch_and_add acc (Clock.now_ns () - t0) : int);
    v
  in
  F.Base_sampler.of_instance { inst with Sig.sample_magnitude }

let verifies kp ~msg (s : F.Sign.signature) =
  F.Verify.verify ~params ~h:kp.F.Keygen.h ~bound_sq:(F.Sign.norm_bound_sq params)
    ~msg ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2

type window = {
  ops : op list;  (** One per signature: its batch's time over the batch size. *)
  attempts : int;  (** Salt draws over all signatures. *)
  sign_s : float;  (** Time inside sign_many. *)
  alloc : float;  (** Minor words allocated inside sign_many. *)
}

(* Sign consecutive batches until [seconds] have passed; [next] is the
   index of the first message.  A batch that raises fails all of its
   signatures; each signature that does not verify fails alone. *)
let run_window ?(traced = false) kp ~make_base ~seed ~next ~seconds =
  let attempts = ref 0 and sign_s = ref 0.0 and alloc = ref 0.0 in
  let step () =
    let first = !next in
    next := first + batch;
    let msgs = Array.init batch (fun i -> message ~seed (first + i)) in
    let lanes = Array.init batch (fun i -> first + i) in
    let call () =
      F.Sign.sign_many ~domains:1 ~check:true ~lanes kp ~make_base
        ~seed:(sign_seed seed) ~msgs
    in
    let w0 = minor_words () in
    let t0 = now () in
    let result = try Ok (if traced then span "bench.sign_batch" call else call ()) with e -> Error e in
    let dt = now () -. t0 in
    let op ok ~slowdown = { units = 1.0; secs = dt /. float_of_int batch; slowdown; ok } in
    match result with
    | Ok sigs ->
      alloc := !alloc +. (minor_words () -. w0);
      sign_s := !sign_s +. dt;
      Array.to_list
        (Array.mapi
           (fun i s ->
             attempts := !attempts + s.F.Sign.attempts;
             op (verifies kp ~msg:msgs.(i) s))
           sigs)
    | Error e ->
      info "sign batch failed: %s" (Printexc.to_string e);
      List.init batch (fun _ -> op false)
  in
  let ops = measure ~reference:reference_s ~seconds step in
  { ops; attempts = !attempts; sign_s = !sign_s; alloc = !alloc }

let setup () =
  repeated_setup ~reps ~dispose:ignore (fun rep ->
      let sampler = compile () in
      (sampler, keygen ~rep))

let untraced (args : args) =
  let (sampler, kp), setup_s = setup () in
  let next = ref 0 in
  let window seconds =
    run_window kp ~make_base:(base_of sampler) ~seed:args.seed ~next ~seconds
  in
  let warm = window warmup_s in
  let w = window args.seconds in
  let failed = failures warm.ops + failures w.ops in
  info "%d warm-up and %d timed signatures, %d failed, %.2f s signing"
    (List.length warm.ops) (List.length w.ops) failed w.sign_s;
  {
    correct = failed = 0 && w.ops <> [];
    attempted = List.length warm.ops + List.length w.ops;
    failed;
    metrics = batch_end_to_end ~setup_s ~warm:warm.ops w.ops;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Summed nanoseconds per sign stage in the process registry. *)
let stage_sums () =
  List.map
    (fun stage ->
      let h =
        Ctg_obs.Registry.histo Ctg_obs.Registry.default ~labels:[ ("stage", stage) ]
          "falcon_sign_stage_ns"
      in
      (stage, (Ctg_obs.Registry.histo_summary h).Ctg_obs.Histo.sum))
    [ "hash_to_point"; "ff_sampling"; "ntt"; "verify_after_sign" ]

(* Cost of one Clock.now_ns call, charged once per timed base draw. *)
let clock_cost_ns () =
  let n = 1_000_000 in
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Clock.now_ns ()) : int)
  done;
  (now () -. t0) *. 1e9 /. float_of_int n

(* Sign a fixed batch with ~domains:2 and ~domains:1 over the same lanes;
   the share of two-domain signatures that equal the one-domain ones and
   verify.  A two-domain batch that raises counts as all wrong. *)
let two_domain_ok_frac sampler kp ~seed =
  let batches = 4 and size = 32 in
  let ok = ref 0 in
  for b = 0 to batches - 1 do
    let idx i = 1_000_000 + (b * size) + i in
    let msgs = Array.init size (fun i -> message ~seed (idx i)) in
    let lanes = Array.init size idx in
    let sign domains =
      F.Sign.sign_many ~domains ~check:true ~lanes kp ~make_base:(base_of sampler)
        ~seed:(sign_seed seed) ~msgs
    in
    let one = sign 1 in
    match sign 2 with
    | two ->
      Array.iteri
        (fun i (s : F.Sign.signature) ->
          let r = one.(i) in
          if s.salt = r.F.Sign.salt && s.s2 = r.F.Sign.s2 && verifies kp ~msg:msgs.(i) s
          then incr ok)
        two
    | exception e -> info "two-domain batch %d failed: %s" b (Printexc.to_string e)
  done;
  let frac = float_of_int !ok /. float_of_int (batches * size) in
  if frac < 1.0 then
    info
      "WARNING: sign_many ~domains:2 matched and verified only %d of %d signatures \
       (see NOTES.md, shared ffSampling workspace)"
      !ok (batches * size);
  frac

let traced (args : args) =
  let t0 = now () in
  let sampler = compile () in
  let compile_s = now () -. t0 in
  let t1 = now () in
  let kp = keygen ~rep:0 in
  let keygen_s = now () -. t1 in
  let clock_ns = clock_cost_ns () in
  let base_ns = Atomic.make 0 in
  let next = ref 0 in
  let stage_deltas = ref [] in
  let window = args.seconds /. 8.0 in
  let measured, host =
    with_host_marker (fun () ->
        let _, kernel = Fill.kernel_probe sampler ~seed:args.seed in
        let (untraced, traced), gc =
          gc_window ~own:true (fun () ->
              alternate ~pairs:4 (fun traced ->
                  if traced then
                    run_window ~traced kp ~make_base:(timed_base_of sampler base_ns)
                      ~seed:args.seed ~next ~seconds:window
                  else begin
                    let s0 = stage_sums () in
                    let w =
                      run_window kp ~make_base:(base_of sampler) ~seed:args.seed ~next
                        ~seconds:window
                    in
                    stage_deltas :=
                      List.map2 (fun (k, a) (_, b) -> (k, b - a)) s0 (stage_sums ()) :: !stage_deltas;
                    w
                  end))
        in
        finish_trace args;
        let two_dom = two_domain_ok_frac sampler kp ~seed:args.seed in
        (untraced, traced, kernel @ gc, two_dom))
  in
  let untraced, traced, gc, two_dom = measured in
  let all = untraced @ traced in
  let sum f ws = List.fold_left (fun a w -> a + f w) 0 ws in
  let sumf f ws = List.fold_left (fun a w -> a +. f w) 0.0 ws in
  let sigs ws = float_of_int (sum (fun w -> List.length w.ops) ws) in
  let stage name =
    float_of_int (List.fold_left (fun a l -> a + List.assoc name l) 0 !stage_deltas)
    /. 1e3 /. sigs untraced
  in
  (* Each attempt draws 2n leaves; every draw paid one extra clock read. *)
  let traced_sigs = sigs traced in
  let leaf_draws =
    float_of_int (sum (fun w -> w.attempts) traced * 2 * params.F.Params.n)
  in
  let base_us =
    (float_of_int (Atomic.get base_ns) -. (leaf_draws *. clock_ns)) /. 1e3 /. traced_sigs
  in
  info "timed base draws: %.0f, one clock read %.1f ns" leaf_draws clock_ns;
  let h2p = stage "hash_to_point" and ff = stage "ff_sampling" in
  let ntt = stage "ntt" and vas = stage "verify_after_sign" in
  let e2e_us ws = sumf (fun w -> w.sign_s) ws *. 1e6 /. sigs ws in
  let failed = sum (fun w -> failures w.ops) all in
  {
    correct = failed = 0;
    attempted = max 1 (sum (fun w -> List.length w.ops) all);
    failed;
    metrics =
      per_layer
        ([
           host;
           m "engine.compile_s" "s" compile_s;
           m "falcon.keygen_s" "s" keygen_s;
           m "falcon.hash_to_point_us" "us" h2p;
           m "falcon.ff_sampling_us" "us" (ff -. base_us);
           m "falcon.basis_fft_us" "us" ntt;
           m "falcon.verify_after_sign_us" "us" vas;
           m "falcon.base_sampler_us" "us" base_us;
           m "falcon.attempts_per_sig" "count"
             (float_of_int (sum (fun w -> w.attempts) all) /. sigs all);
           m "falcon.alloc_words_per_sig" "words" (sumf (fun w -> w.alloc) untraced /. sigs untraced);
           m "falcon.sign_many_2dom_ok_frac" "ratio" two_dom;
           m "trace.overhead_frac" "ratio" (ratio (e2e_us traced) (e2e_us untraced) -. 1.0);
           m "layers.residual_frac" "ratio"
             (1.0 -. ((h2p +. ff +. ntt +. vas) /. e2e_us untraced));
         ]
        @ gc);
  }

let run (args : args) = if args.trace then traced args else untraced args
