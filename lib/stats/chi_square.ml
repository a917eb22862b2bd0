type result = { statistic : float; dof : int; p_value : float }

let gammln x =
  (* Lanczos approximation. *)
  let cof =
    [| 76.18009172947146; -86.50532032941677; 24.01409824083091;
       -1.231739572450155; 0.1208650973866179e-2; -0.5395239384953e-5 |]
  in
  let y = ref x in
  let tmp = x +. 5.5 in
  let tmp = tmp -. ((x +. 0.5) *. log tmp) in
  let ser = ref 1.000000000190015 in
  Array.iter
    (fun c ->
      y := !y +. 1.0;
      ser := !ser +. (c /. !y))
    cof;
  -.tmp +. log (2.5066282746310005 *. !ser /. x)

(* Series representation of P(a,x), valid for x < a+1. *)
let gser a x =
  let itmax = 200 and eps = 3e-9 in
  if x <= 0.0 then 0.0
  else begin
    let ap = ref a in
    let sum = ref (1.0 /. a) in
    let del = ref !sum in
    let rec go i =
      if i > itmax then !sum
      else begin
        ap := !ap +. 1.0;
        del := !del *. x /. !ap;
        sum := !sum +. !del;
        if abs_float !del < abs_float !sum *. eps then !sum else go (i + 1)
      end
    in
    let s = go 1 in
    s *. exp ((-.x) +. (a *. log x) -. gammln a)
  end

(* Continued fraction for Q(a,x), valid for x >= a+1. *)
let gcf a x =
  let itmax = 200 and eps = 3e-9 and fpmin = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. fpmin) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let rec go i =
    if i > itmax then ()
    else begin
      let an = -.float_of_int i *. (float_of_int i -. a) in
      b := !b +. 2.0;
      d := (an *. !d) +. !b;
      if abs_float !d < fpmin then d := fpmin;
      c := !b +. (an /. !c);
      if abs_float !c < fpmin then c := fpmin;
      d := 1.0 /. !d;
      let del = !d *. !c in
      h := !h *. del;
      if abs_float (del -. 1.0) < eps then () else go (i + 1)
    end
  in
  go 1;
  exp ((-.x) +. (a *. log x) -. gammln a) *. !h

let gammq a x =
  if x < 0.0 || a <= 0.0 then invalid_arg "Chi_square.gammq";
  if x = 0.0 then 1.0
  else if x < a +. 1.0 then 1.0 -. gser a x
  else gcf a x

type plan = {
  bins : int;
  starts : int array; (* first bin of each group, ascending *)
  group_expected : float array;
}

(* Merge low-expectation bins left to right into an accumulator;
   whatever is left joins the last group.  Two passes (count, then fill)
   so a rebuild allocates just the two group arrays, and loops, not
   closures, so the float accumulator is not boxed per bin. *)
let plan ~expected =
  let bins = Array.length expected in
  let closed = ref 0 and acc = ref 0.0 in
  for i = 0 to bins - 1 do
    acc := !acc +. expected.(i);
    if !acc >= 5.0 then begin
      incr closed;
      acc := 0.0
    end
  done;
  let groups = max 1 !closed in
  let starts = Array.make groups 0 and group_expected = Array.make groups 0.0 in
  let g = ref 0 and acc = ref 0.0 in
  for i = 0 to bins - 1 do
    acc := !acc +. expected.(i);
    if !acc >= 5.0 then begin
      group_expected.(!g) <- !acc;
      incr g;
      if !g < groups then starts.(!g) <- i + 1;
      acc := 0.0
    end
  done;
  group_expected.(groups - 1) <- group_expected.(groups - 1) +. !acc;
  { bins = Array.length expected; starts; group_expected }

(* Groups are summed last to first: the statistic is bit-identical to
   the one the unplanned fold over the newest-first group list gave. *)
let test_planned p ~observed =
  if Array.length observed <> p.bins then
    invalid_arg "Chi_square.test: length mismatch";
  let groups = Array.length p.starts in
  let stat = ref 0.0 and stop = ref p.bins in
  for g = groups - 1 downto 0 do
    let o = ref 0 in
    for i = p.starts.(g) to !stop - 1 do
      o := !o + observed.(i)
    done;
    stop := p.starts.(g);
    let e = p.group_expected.(g) in
    if not (e <= 0.0) then begin
      let d = float_of_int !o -. e in
      stat := !stat +. (d *. d /. e)
    end
  done;
  let dof = max 1 (groups - 1) in
  { statistic = !stat; dof; p_value = gammq (float_of_int dof /. 2.0) (!stat /. 2.0) }

let test ~observed ~expected = test_planned (plan ~expected) ~observed
