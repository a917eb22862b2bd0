(* Writes kernels.ml: one straight-line kernel per paper key, and [find]
   keyed by the program digest. *)

let () =
  let digests =
    List.mapi
      (fun i (sigma, precision) ->
        let s = Ctgauss.Sampler.create ~sigma ~precision ~tail_cut:13 () in
        let name = Printf.sprintf "kernel_%d" i in
        Printf.printf "(* sigma=%s, precision=%d, tail cut 13 *)\n%s\n" sigma precision
          (Ctgauss.Codegen.to_ocaml ~name (Ctgauss.Sampler.program s));
        (Ctgauss.Sampler.digest s, name))
      Ctgauss.Sampler.paper_keys
  in
  print_string "let table = [\n";
  List.iter (fun (d, name) -> Printf.printf "  (0x%LxL, %s);\n" d name) digests;
  print_string "]\n\n";
  print_string
    "let find digest =\n\
    \  List.find_map (fun (d, k) -> if Int64.equal d digest then Some k else None) table\n"
