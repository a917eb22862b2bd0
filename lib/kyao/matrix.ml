module Gt = Ctg_fixed.Gaussian_table

type t = {
  sigma : string;
  precision : int;
  support : int;
  bits : bool array array;
  col_weight : int array;
  rows : int array array;
}

let of_table (gt : Gt.t) =
  let precision = gt.Gt.precision and support = gt.Gt.support in
  let bits =
    Array.init (support + 1) (fun row ->
        Array.init precision (fun col -> Gt.row_bit gt ~row ~col = 1))
  in
  let col_weight =
    Array.init precision (fun col ->
        let acc = ref 0 in
        for row = 0 to support do
          if bits.(row).(col) then incr acc
        done;
        !acc)
  in
  (* rows.(col).(rank): the set rows of the column from the bottom up. *)
  let rows =
    Array.init precision (fun col ->
        let r = Array.make col_weight.(col) 0 in
        let k = ref 0 in
        for row = support downto 0 do
          if bits.(row).(col) then begin
            r.(!k) <- row;
            incr k
          end
        done;
        r)
  in
  { sigma = gt.Gt.sigma; precision; support; bits; col_weight; rows }

let create ~sigma ~precision ~tail_cut =
  of_table (Gt.create ~sigma ~precision ~tail_cut)

let row_for t ~col ~rank =
  assert (rank >= 0 && rank < t.col_weight.(col));
  t.rows.(col).(rank)

let leaves_total t = Array.fold_left ( + ) 0 t.col_weight
