type value = On | Off | Dc
type t = { vars : int; cells : value array }

let create ~vars ~default =
  if vars < 0 || vars > 20 then invalid_arg "Truth_table.create: vars";
  { vars; cells = Array.make (1 lsl vars) default }

let vars t = t.vars
let set t m v = t.cells.(m) <- v
let get t m = t.cells.(m)

let collect t want =
  let acc = ref [] in
  for m = Array.length t.cells - 1 downto 0 do
    if t.cells.(m) = want then acc := m :: !acc
  done;
  !acc

let ones t = collect t On
let dontcares t = collect t Dc

let implements t f =
  let n = 1 lsl t.vars in
  let rec go m =
    if m >= n then true
    else begin
      let ok =
        match t.cells.(m) with
        | Dc -> true
        | On -> f m
        | Off -> not (f m)
      in
      ok && go (m + 1)
    end
  in
  go 0
