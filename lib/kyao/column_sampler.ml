type outcome = Hit of { value : int; level : int } | Exhausted

(* Alg. 1 with the inner row scan folded into arithmetic on the walk
   distance [d]: after [d <- 2d + r], the walk hits a leaf iff
   [d < h_col], and the sample is the (d+1)-th set row from the bottom. *)
let walk_gen (m : Matrix.t) next_bit =
  let rec go d col =
    if col >= m.Matrix.precision then Exhausted
    else
      match next_bit col with
      | None -> Exhausted
      | Some r ->
        let d = (2 * d) + r in
        let h = m.Matrix.col_weight.(col) in
        if d < h then Hit { value = Matrix.row_for m ~col ~rank:d; level = col }
        else go (d - h) (col + 1)
  in
  go 0 0

let walk m bs = walk_gen m (fun _ -> Some (Ctg_prng.Bitstream.next_bit bs))

let walk_bits m bits =
  walk_gen m (fun col ->
      if col < Array.length bits then Some (if bits.(col) then 1 else 0)
      else None)

(* [walk] restarted until a hit, as a loop over the same bits: it
   allocates nothing, since the bitsliced sampler runs it for every lane
   its program leaves unterminated. *)
let sample_magnitude (m : Matrix.t) bs =
  let h = m.Matrix.col_weight and rows = m.Matrix.rows in
  let value = ref (-1) and d = ref 0 and col = ref 0 in
  while !value < 0 do
    if !col >= m.Matrix.precision then begin
      d := 0;
      col := 0
    end
    else begin
      let d' = (2 * !d) + Ctg_prng.Bitstream.next_bit bs in
      let hc = h.(!col) in
      if d' < hc then value := rows.(!col).(d')
      else begin
        d := d' - hc;
        incr col
      end
    end
  done;
  !value

let sample_signed m bs =
  let v = sample_magnitude m bs in
  if Ctg_prng.Bitstream.next_bit bs = 1 then -v else v
