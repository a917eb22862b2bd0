(* falcon_cli: keygen / sign / verify from the command line, with the base
   Gaussian sampler selectable — the paper's experiment as a tool.

     falcon_cli keygen -n 256 --out demo.key
     falcon_cli sign --key demo.key --message msg.txt --out msg.sig
     falcon_cli verify --key demo.key --message msg.txt --signature msg.sig
*)

open Cmdliner
module F = Ctg_falcon

(* Binary key files via the library codec (FKR1 format). *)
let write_key file (kp : F.Keygen.keypair) =
  Out_channel.with_open_bin file (fun oc ->
      output_bytes oc (F.Codec.encode_keypair kp))

let params_of_n n =
  match n with
  | 256 -> F.Params.level1
  | 512 -> F.Params.level2
  | 1024 -> F.Params.level3
  | _ -> F.Params.custom ~n

let read_key file =
  let data = In_channel.with_open_bin file In_channel.input_all in
  match F.Codec.decode_keypair (Bytes.of_string data) with
  | Some kp -> kp
  | None -> failwith (Printf.sprintf "%s: not a valid FKR1 key file" file)

let make_base sampler =
  match sampler with
  | "bitsliced" ->
    (* The serving sampler: kernel-bound and self-tested by the registry. *)
    let s =
      Ctg_engine.Registry.lookup Ctg_engine.Registry.global ~sigma:"2"
        ~precision:128 ~tail_cut:13 ()
    in
    F.Base_sampler.of_instance
      (Ctg_samplers.Sampler_sig.of_bitsliced (Ctgauss.Sampler.clone s))
  | "byte-scan" | "cdt" | "linear-ct" ->
    let m = Ctg_kyao.Matrix.create ~sigma:"2" ~precision:128 ~tail_cut:13 in
    let table = Ctg_samplers.Cdt_table.of_matrix m in
    let inst =
      match sampler with
      | "byte-scan" -> Ctg_samplers.Cdt_samplers.byte_scan table
      | "cdt" -> Ctg_samplers.Cdt_samplers.binary_search table
      | _ -> Ctg_samplers.Cdt_samplers.linear_ct table
    in
    F.Base_sampler.of_instance inst
  | "ideal" -> F.Base_sampler.ideal ()
  | other -> failwith (Printf.sprintf "unknown sampler %S" other)

let rng_of_seed = function
  | Some seed -> Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed seed)
  | None ->
    let now = Printf.sprintf "%f.%d" (Unix.gettimeofday ()) (Unix.getpid ()) in
    Ctg_prng.Bitstream.of_chacha (Ctg_prng.Chacha20.of_seed now)

(* ------------------------------------------------------------------ *)

let n_arg =
  Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc:"Ring degree (256/512/1024).")

let seed_arg =
  Arg.(value & opt (some string) None & info [ "seed" ] ~docv:"SEED"
         ~doc:"Deterministic seed (time-based when omitted).")

let key_arg =
  Arg.(required & opt (some string) None & info [ "key"; "k" ] ~docv:"FILE"
         ~doc:"Key file produced by keygen.")

let message_arg =
  Arg.(required & opt (some string) None & info [ "message"; "m" ] ~docv:"FILE"
         ~doc:"Message file.")

let sampler_arg =
  Arg.(value & opt string "bitsliced" & info [ "sampler" ] ~docv:"S"
         ~doc:"Base sampler: bitsliced, byte-scan, cdt, linear-ct or ideal.")

let keygen n out seed =
  let params = params_of_n n in
  let rng = rng_of_seed seed in
  let t0 = Unix.gettimeofday () in
  let kp = F.Keygen.generate params rng in
  Printf.printf "generated %s in %.2fs (%d draws); NTRU eq: %b\n"
    (F.Params.name params)
    (Unix.gettimeofday () -. t0)
    kp.F.Keygen.attempts
    (F.Keygen.check_ntru_equation kp);
  write_key out kp;
  Printf.printf "wrote %s (public key: %d bytes packed)\n" out
    (F.Codec.public_key_bytes kp.F.Keygen.h)

let keygen_cmd =
  let out =
    Arg.(value & opt string "falcon.key" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output key file.")
  in
  Cmd.v
    (Cmd.info "keygen" ~doc:"Generate a Falcon key pair (exact NTRUSolve).")
    Term.(const keygen $ n_arg $ out $ seed_arg)

let sign key message out sampler seed trace =
  (match trace with None -> () | Some _ -> Ctg_obs.Trace.enable ());
  let kp = read_key key in
  let msg = In_channel.with_open_bin message In_channel.input_all in
  let base = make_base sampler in
  let rng = rng_of_seed seed in
  let t0 = Unix.gettimeofday () in
  let s = F.Sign.sign kp base rng ~msg:(Bytes.of_string msg) in
  let blob = F.Codec.encode_signature ~salt:s.F.Sign.salt ~s2:s.F.Sign.s2 in
  Out_channel.with_open_bin out (fun oc -> output_bytes oc blob);
  Printf.printf
    "signed with %s in %.1f ms: |s|=%.0f, %d attempt(s), %d bytes -> %s\n"
    (F.Base_sampler.name base)
    ((Unix.gettimeofday () -. t0) *. 1e3)
    (sqrt s.F.Sign.norm_sq) s.F.Sign.attempts (Bytes.length blob) out;
  match trace with
  | None -> ()
  | Some path ->
    Ctg_obs.Trace.disable ();
    Ctg_obs.Trace.write path;
    Printf.printf "wrote trace to %s\n" path

let sign_cmd =
  let out =
    Arg.(value & opt string "message.sig" & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output signature file.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the sign stages (hash-to-point, ffSampling, NTT, \
                 verify-after-sign) and the encoding as a Chrome \
                 trace_event JSON file.")
  in
  Cmd.v
    (Cmd.info "sign" ~doc:"Sign a message file.")
    Term.(const sign $ key_arg $ message_arg $ out $ sampler_arg $ seed_arg $ trace)

let verify key message signature =
  let kp = read_key key in
  let msg = In_channel.with_open_bin message In_channel.input_all in
  let blob = In_channel.with_open_bin signature In_channel.input_all in
  let bound = F.Sign.norm_bound_sq kp.F.Keygen.params in
  match F.Codec.decode_signature ~params:kp.F.Keygen.params (Bytes.of_string blob) with
  | None ->
    Printf.printf "malformed signature\n";
    exit 1
  | Some (salt, s2) ->
    let ok =
      F.Verify.verify ~params:kp.F.Keygen.params ~h:kp.F.Keygen.h ~bound_sq:bound
        ~msg:(Bytes.of_string msg) ~salt ~s2
    in
    Printf.printf "%s\n" (if ok then "VALID" else "INVALID");
    exit (if ok then 0 else 1)

let verify_cmd =
  let signature =
    Arg.(required & opt (some string) None & info [ "signature"; "s" ] ~docv:"FILE"
           ~doc:"Signature file.")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a signature file.")
    Term.(const verify $ key_arg $ message_arg $ signature)

let () =
  let doc = "Falcon-like signatures with pluggable Gaussian samplers" in
  let info = Cmd.info "falcon_cli" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ keygen_cmd; sign_cmd; verify_cmd ]))
