(* Allocation-free tree walk: per depth we keep two pairs of scratch
   buffers — the split of the current target (consumed immediately by the
   child call) and the child's z outputs (merged into the parent's output
   buffer right after).  Buffers of depth d are dead across the two child
   calls, so one set per depth suffices. *)

type workspace = {
  t_split : (Fftc.t * Fftc.t) array; (* indexed by depth, degree n/2^(d+1) *)
  z_out : (Fftc.t * Fftc.t) array;
}

(* One cache per domain: a walk mutates its workspace throughout, so two
   domains signing at once must never share one. *)
let workspace_cache : (int, workspace) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let workspace n =
  let workspace_cache = Domain.DLS.get workspace_cache in
  match Hashtbl.find_opt workspace_cache n with
  | Some w -> w
  | None ->
    (* Only nodes of degree ≥ 4 split; the degree-2 level runs inline. *)
    let depths =
      let rec go d v = if v <= 2 then d else go (d + 1) (v / 2) in
      go 0 n
    in
    let pair d = (Fftc.create (n lsr (d + 1)), Fftc.create (n lsr (d + 1))) in
    let w =
      {
        t_split = Array.init depths pair;
        z_out = Array.init depths pair;
      }
    in
    Hashtbl.replace workspace_cache n w;
    w

(* out_t0' = t0 + (t1 - z1)·l, fused. *)
let babai_adjust ~t0 ~t1 ~z1 ~l ~out =
  let n = Array.length t0.Fftc.re in
  for i = 0 to n - 1 do
    let dr = t1.Fftc.re.(i) -. z1.Fftc.re.(i) in
    let di = t1.Fftc.im.(i) -. z1.Fftc.im.(i) in
    out.Fftc.re.(i) <-
      t0.Fftc.re.(i) +. ((dr *. l.Fftc.re.(i)) -. (di *. l.Fftc.im.(i)));
    out.Fftc.im.(i) <-
      t0.Fftc.im.(i) +. ((dr *. l.Fftc.im.(i)) +. (di *. l.Fftc.re.(i)))
  done

(* A degree-1 node, one child of the degree-2 level.  Its target is the
   split of the parent's one slot t = t_0 + i·t_1 into the reals (t_0, t_1),
   and its l is real.  It draws t_1's integer first (the right leaf), then
   t_0's around the Babai-adjusted center, and writes their merge
   v_0 + i·v_1 into z's slot. *)
let leaf_pair base rng node (t : Fftc.t) (z : Fftc.t) =
  match node with
  | Ldl.Node
      {
        l;
        left = Ldl.Leaf { sigma' = sigma0; _ };
        right = Ldl.Leaf { sigma' = sigma1; _ };
      } ->
    let y = t.Fftc.im.(0) in
    let v1 = Base_sampler.sample_around base rng ~center:y ~sigma':sigma1 in
    let center = t.Fftc.re.(0) +. ((y -. float_of_int v1) *. l.Fftc.re.(0)) in
    let v0 = Base_sampler.sample_around base rng ~center ~sigma':sigma0 in
    z.Fftc.re.(0) <- float_of_int v0;
    z.Fftc.im.(0) <- float_of_int v1
  | _ -> assert false (* Ldl.build puts two leaves under every degree-1 node *)

let rec sample_rec ws depth tree base rng ~t0 ~t1 ~z0 ~z1 =
  match tree with
  | Ldl.Leaf _ -> assert false (* the recursion bottoms inside Node *)
  | Ldl.Node { l; left; right } ->
    if t0.Fftc.n = 2 then begin
      leaf_pair base rng right t1 z1;
      babai_adjust ~t0 ~t1 ~z1 ~l ~out:t0;
      leaf_pair base rng left t0 z0
    end
    else begin
      let ts = ws.t_split.(depth) and zs = ws.z_out.(depth) in
      Fftc.split_into t1 ts;
      let a, b = ts and za, zb = zs in
      sample_rec ws (depth + 1) right base rng ~t0:a ~t1:b ~z0:za ~z1:zb;
      Fftc.merge_into zs z1;
      (* t0' = t0 + (t1 - z1)·l, reusing t0 as the output buffer. *)
      babai_adjust ~t0 ~t1 ~z1 ~l ~out:t0;
      Fftc.split_into t0 ts;
      sample_rec ws (depth + 1) left base rng ~t0:a ~t1:b ~z0:za ~z1:zb;
      Fftc.merge_into zs z0
    end

let sample (t : Ldl.t) base rng ~t0 ~t1 =
  let n = t0.Fftc.n in
  let ws = workspace n in
  let z0 = Fftc.create n and z1 = Fftc.create n in
  (* The walk clobbers its targets; keep the caller's intact. *)
  let t0c = Fftc.create n and t1c = Fftc.create n in
  Fftc.blit t0 t0c;
  Fftc.blit t1 t1c;
  sample_rec ws 0 t.Ldl.root base rng ~t0:t0c ~t1:t1c ~z0 ~z1;
  (z0, z1)
