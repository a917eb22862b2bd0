module Sm = Ctg_prng.Splitmix64
module Ky = Ctg_kyao

type failure = {
  sigma : string;
  index : int; (* -1: program digest mismatch, before any KAT ran *)
  expected : int option; (* None: the reference walk is unterminated *)
  got : int option; (* None: the compiled program flagged invalid *)
}

exception Failed of failure

let default_strings = 512

(* KAT inputs are fixed for all time: the all-zeros and all-ones strings
   plus [default_strings - 2] Splitmix-derived ones from a constant seed.
   A corrupted gate table must disagree with the trusted Knuth-Yao walk
   (driven by the sampler's own probability matrix, which the corruption
   model leaves intact) on at least one of them to be caught. *)
let kat_seed = 0x5E1F7E5700C0FFEEL

let vectors ~num_vars ~strings =
  let sm = Sm.create kat_seed in
  Array.init strings (fun i ->
      if i = 0 then Array.make num_vars false
      else if i = 1 then Array.make num_vars true
      else Array.init num_vars (fun _ -> Sm.next_int sm 2 = 1))

let run ?(strings = default_strings) sampler =
  let program = Ctgauss.Sampler.program sampler in
  let matrix = Ctgauss.Sampler.matrix sampler in
  let sigma = Ctgauss.Sampler.sigma sampler in
  if not (Ctgauss.Sampler.integrity_ok sampler) then
    Error { sigma; index = -1; expected = None; got = None }
  else begin
  let num_vars = program.Ctgauss.Gate.num_vars in
  let inputs = vectors ~num_vars ~strings in
  let rec go i =
    if i >= strings then Ok ()
    else begin
      let bits = inputs.(i) in
      let mag, valid = Ctgauss.Sampler.eval_bits sampler bits in
      let reference = Ky.Column_sampler.walk_bits matrix bits in
      let ok, expected, got =
        match reference with
        | Ky.Column_sampler.Hit { value; _ } ->
          (valid && mag = value, Some value, if valid then Some mag else None)
        | Ky.Column_sampler.Exhausted ->
          (not valid, None, if valid then Some mag else None)
      in
      if ok then go (i + 1) else Error { sigma; index = i; expected; got }
    end
  in
  go 0
  end

let check ?strings sampler =
  match run ?strings sampler with Ok () -> () | Error f -> raise (Failed f)
