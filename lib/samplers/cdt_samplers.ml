(* Each sampler returns the smallest v with r < cdf(v); a draw at or above
   the last entry (probability < 2^-117 at Falcon parameters) is redrawn. *)

let binary_search table =
  let size = Cdt_table.size table in
  let rec sample rng ops =
    let r = Cdt_table.draw table rng in
    let below_top, c = Cdt_table.lt_early_exit r (Cdt_table.cdf table (size - 1)) in
    let ops = ops + c in
    if not below_top then sample rng ops
    else begin
      (* Invariant: cdf(hi) > r, and cdf(v) <= r for all v < lo. *)
      let rec go lo hi ops =
        if lo >= hi then (hi, ops)
        else begin
          let mid = (lo + hi) / 2 in
          let lt, c = Cdt_table.lt_early_exit r (Cdt_table.cdf table mid) in
          if lt then go lo mid (ops + c) else go (mid + 1) hi (ops + c)
        end
      in
      go 0 (size - 1) ops
    end
  in
  {
    Sampler_sig.name = "cdt-binary";
    constant_time = false;
    sample_magnitude = (fun rng -> fst (sample rng 0));
    sample_traced = (fun rng -> sample rng 0);
  }

let byte_scan table =
  let size = Cdt_table.size table in
  let rec sample rng ops =
    let r = Cdt_table.draw table rng in
    let rec scan v ops =
      if v >= size then sample rng ops (* residual: redraw *)
      else begin
        let lt, c = Cdt_table.lt_early_exit r (Cdt_table.cdf table v) in
        if lt then (v, ops + c) else scan (v + 1) (ops + c)
      end
    in
    scan 0 ops
  in
  {
    Sampler_sig.name = "cdt-byte-scan";
    constant_time = false;
    sample_magnitude = (fun rng -> fst (sample rng 0));
    sample_traced = (fun rng -> sample rng 0);
  }

let linear_ct table =
  let size = Cdt_table.size table in
  let rec sample rng ops =
    let r = Cdt_table.draw table rng in
    (* v = number of entries with cdf <= r, accumulated branch-free over
       the full table on every call. *)
    let acc = ref 0 and ops = ref ops in
    for v = 0 to size - 1 do
      let lt, c = Cdt_table.lt_ct r (Cdt_table.cdf table v) in
      ops := !ops + c;
      acc := !acc + 1 - Bool.to_int lt
    done;
    if !acc >= size then sample rng !ops else (!acc, !ops)
  in
  {
    Sampler_sig.name = "cdt-linear-ct";
    constant_time = true;
    sample_magnitude = (fun rng -> fst (sample rng 0));
    sample_traced = (fun rng -> sample rng 0);
  }

let zoo s =
  let matrix = Ctgauss.Sampler.matrix s in
  let table = Cdt_table.of_matrix matrix in
  [
    Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone s);
    linear_ct table;
    binary_search table;
    byte_scan table;
    Sampler_sig.knuth_yao_reference matrix;
  ]
