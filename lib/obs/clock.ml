let t0 = Unix.gettimeofday ()
let now_ns () = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
