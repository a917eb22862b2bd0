type tree =
  | Leaf of { d : float; sigma' : float }
  | Node of { l : Fftc.t; left : tree; right : tree }

type t = { root : tree; sum_d : float; sigma_sign : float }

(* ffLDL on the 2x2 Gram [[g00, g01], [g01*, g11]] over size n:
   l = g01* / g00, d00 = g00, d11 = g11 − l·g01; children come from the
   split of the self-adjoint d00/d11 as [[d_e, d_o], [d_o*, d_e]]. *)
let rec ff_ldl ~sigma_sign ~sum_d g00 g01 g11 =
  let n = g00.Fftc.n in
  let l = Fftc.div (Fftc.adjoint g01) g00 in
  let d00 = g00 in
  let d11 = Fftc.sub g11 (Fftc.mul l g01) in
  if n = 1 then begin
    let leaf d =
      let d = Float.max d 1e-9 in
      sum_d := !sum_d +. d;
      Leaf { d; sigma' = sigma_sign /. sqrt d }
    in
    Node { l; left = leaf d00.Fftc.re.(0); right = leaf d11.Fftc.re.(0) }
  end
  else begin
    let child d =
      let d_e, d_o = Fftc.split d in
      (* Child Gram: [[d_e, d_o], [d_o*, d_e]]. *)
      ff_ldl ~sigma_sign ~sum_d d_e d_o d_e
    in
    Node { l; left = child d00; right = child d11 }
  end

let build ~b1 ~b2 ~sigma_sign =
  let b10, b11 = b1 and b20, b21 = b2 in
  let g00 =
    Fftc.add (Fftc.mul b10 (Fftc.adjoint b10)) (Fftc.mul b11 (Fftc.adjoint b11))
  in
  let g01 =
    Fftc.add (Fftc.mul b10 (Fftc.adjoint b20)) (Fftc.mul b11 (Fftc.adjoint b21))
  in
  let g11 =
    Fftc.add (Fftc.mul b20 (Fftc.adjoint b20)) (Fftc.mul b21 (Fftc.adjoint b21))
  in
  let sum_d = ref 0.0 in
  let root = ff_ldl ~sigma_sign ~sum_d g00 g01 g11 in
  { root; sum_d = !sum_d; sigma_sign }

let leaf_count t =
  let rec go = function
    | Leaf _ -> 1
    | Node { left; right; _ } -> go left + go right
  in
  go t.root
