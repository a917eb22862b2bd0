type t = int

(* Terminals are ids 0 and 1.  Internal node i (i >= 2) is
   (vars.(i), lo.(i), hi.(i)): lo is the co-factor with the variable
   false.  Reduction invariants: lo <> hi (no redundant tests) and the
   unique table guarantees one id per (var, lo, hi) — together they make
   handle equality functional equivalence. *)
type man = {
  mutable vars : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable next : int;
  unique : (int * int * int, int) Hashtbl.t;
  cache : (int * int * int, int) Hashtbl.t;  (* (op, a, b) -> result *)
  num_vars : int;
}

let terminal_var = max_int

let create ~num_vars =
  let cap = 1024 in
  let vars = Array.make cap terminal_var in
  {
    vars;
    lo = Array.make cap 0;
    hi = Array.make cap 0;
    next = 2;
    unique = Hashtbl.create 4096;
    cache = Hashtbl.create 4096;
    num_vars;
  }

let num_vars m = m.num_vars
let zero = 0
let one = 1
let is_zero t = t = 0
let is_one t = t = 1
let equal (a : t) (b : t) = a = b

let grow m =
  let cap = Array.length m.vars in
  if m.next >= cap then begin
    let cap' = 2 * cap in
    let resize a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    m.vars <- resize m.vars terminal_var;
    m.lo <- resize m.lo 0;
    m.hi <- resize m.hi 0
  end

let mk m v lo hi =
  if lo = hi then lo
  else
    let key = (v, lo, hi) in
    match Hashtbl.find_opt m.unique key with
    | Some id -> id
    | None ->
      grow m;
      let id = m.next in
      m.next <- id + 1;
      m.vars.(id) <- v;
      m.lo.(id) <- lo;
      m.hi.(id) <- hi;
      Hashtbl.add m.unique key id;
      id

let var m i =
  if i < 0 || i >= m.num_vars then
    invalid_arg (Printf.sprintf "Bdd.var: %d out of [0, %d)" i m.num_vars);
  mk m i 0 1

(* op tags for the shared apply cache *)
let op_and = 0
let op_or = 1
let op_xor = 2

let rec apply m op a b =
  (* Terminal / absorption shortcuts. *)
  let shortcut =
    if op = op_and then
      if a = 0 || b = 0 then Some 0
      else if a = 1 then Some b
      else if b = 1 then Some a
      else if a = b then Some a
      else None
    else if op = op_or then
      if a = 1 || b = 1 then Some 1
      else if a = 0 then Some b
      else if b = 0 then Some a
      else if a = b then Some a
      else None
    else if a = 0 then Some b
    else if b = 0 then Some a
    else if a = b then Some 0
    else None
  in
  match shortcut with
  | Some r -> r
  | None ->
    (* All three ops are commutative: normalize for cache hits. *)
    let a, b = if a <= b then (a, b) else (b, a) in
    let key = (op, a, b) in
    (match Hashtbl.find_opt m.cache key with
    | Some r -> r
    | None ->
      let va = m.vars.(a) and vb = m.vars.(b) in
      let v = min va vb in
      let a0, a1 = if va = v then (m.lo.(a), m.hi.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.lo.(b), m.hi.(b)) else (b, b) in
      let r = mk m v (apply m op a0 b0) (apply m op a1 b1) in
      Hashtbl.add m.cache key r;
      r)

let band m a b = apply m op_and a b
let bor m a b = apply m op_or a b
let bxor m a b = apply m op_xor a b
let bnot m a = apply m op_xor a 1
let eval m t assignment =
  let rec go t =
    if t < 2 then t = 1
    else
      let v = m.vars.(t) in
      let bit = v < Array.length assignment && assignment.(v) in
      go (if bit then m.hi.(t) else m.lo.(t))
  in
  go t

let any_sat m t =
  if t = 0 then None
  else begin
    let a = Array.make m.num_vars false in
    let rec go t =
      if t < 2 then ()
      else if m.hi.(t) <> 0 then begin
        a.(m.vars.(t)) <- true;
        go (m.hi.(t))
      end
      else go (m.lo.(t))
    in
    go t;
    Some a
  end

let sat_count m t =
  (* c(node) counts assignments of the variables strictly below var(node);
     terminals sit at depth num_vars. *)
  let memo = Hashtbl.create 256 in
  let level t = if t < 2 then m.num_vars else m.vars.(t) in
  let rec c t =
    if t = 0 then 0.0
    else if t = 1 then 1.0
    else
      match Hashtbl.find_opt memo t with
      | Some r -> r
      | None ->
        let l = level t in
        let branch s = c s *. (2.0 ** float_of_int (level s - l - 1)) in
        let r = branch m.lo.(t) +. branch m.hi.(t) in
        Hashtbl.add memo t r;
        r
  in
  c t *. (2.0 ** float_of_int (level t))

let size m t =
  let seen = Hashtbl.create 64 in
  let rec go t =
    if t >= 2 && not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      go m.lo.(t);
      go m.hi.(t)
    end
  in
  go t;
  Hashtbl.length seen

let node_count m = m.next - 2
