type level = Level1 | Level2 | Level3

type t = {
  level : level;
  n : int;
  q : int;
  sigma_fg : float;
  salt_bytes : int;
  max_sign_attempts : int;
}

let q = 12289

let make level n =
  {
    level;
    n;
    q;
    sigma_fg = 1.17 *. sqrt (float_of_int q /. float_of_int (2 * n));
    salt_bytes = 40;
    max_sign_attempts = 64;
  }

let level1 = make Level1 256
let level2 = make Level2 512
let level3 = make Level3 1024
let all = [ level1; level2; level3 ]

let name t =
  match t.level with
  | Level1 -> "falcon-256 (level 1)"
  | Level2 -> "falcon-512 (level 2)"
  | Level3 -> "falcon-1024 (level 3)"

let custom ~n =
  if n < 4 || n land (n - 1) <> 0 then invalid_arg "Params.custom: n";
  make Level1 n
