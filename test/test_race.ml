(* Tests for the ctg_race model checker itself (the DPOR scheduler must
   be trustworthy before its verdicts on the engine mean anything), the
   bundled harnesses, and the shared-state lint. *)

module Model = Ctg_race.Model
module Harness = Ctg_race.Harness
module Lint = Ctg_race.Lint_race
open Ctg_sync.Shim

(* ---------------------------------------------------------------- *)
(* Micro-programs for the scheduler tests.                           *)

(* Known-racy two-line counter: read-then-write increment. *)
let racy_counter () =
  let c = Atomic.make 0 in
  let incr_racy () =
    let v = Atomic.get c in
    Atomic.set c (v + 1)
  in
  let d1 = Domain.spawn incr_racy in
  let d2 = Domain.spawn incr_racy in
  Domain.join d1;
  Domain.join d2;
  assert (Atomic.get c = 2)

(* Same shape, atomic increment: safe. *)
let safe_counter () =
  let c = Atomic.make 0 in
  let d1 = Domain.spawn (fun () -> Atomic.incr c) in
  let d2 = Domain.spawn (fun () -> Atomic.incr c) in
  Domain.join d1;
  Domain.join d2;
  assert (Atomic.get c = 2)

(* Known-safe miniature seqlock: writer bumps an even/odd generation
   around a two-word update; reader retries until stable-and-even. *)
let mini_seqlock ~bump_gen () =
  let gen = Atomic.make 0 in
  let x = Atomic.make 0 and y = Atomic.make 0 in
  let writer () =
    if bump_gen then Atomic.incr gen;
    Atomic.set x 1;
    Atomic.set y 1;
    if bump_gen then Atomic.incr gen
  in
  let reader () =
    let rec snap () =
      let g1 = Atomic.get gen in
      let a = Atomic.get x in
      let b = Atomic.get y in
      let g2 = Atomic.get gen in
      if g1 = g2 && g1 land 1 = 0 then (a, b) else snap ()
    in
    let a, b = snap () in
    (* A torn snapshot is (1, 0): x written, y not yet. *)
    assert ((a, b) = (0, 0) || (a, b) = (1, 1))
  in
  let w = Domain.spawn writer in
  let r = Domain.spawn reader in
  Domain.join w;
  Domain.join r

(* Condition.wait without checking the predicate: if the signaller runs
   before the waiter even acquires the mutex, the signal hits an empty
   wait queue and is lost — the waiter then parks forever. *)
let wait_no_predicate () =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let ready = ref false in
  let waiter () =
    Mutex.lock mu;
    Condition.wait cond mu;
    assert !ready;
    Mutex.unlock mu
  in
  let signaller () =
    Mutex.lock mu;
    ready := true;
    Condition.signal cond;
    Mutex.unlock mu
  in
  let w = Domain.spawn waiter in
  let s = Domain.spawn signaller in
  Domain.join w;
  Domain.join s

(* Correct version: predicate re-checked in a loop. *)
let wait_with_predicate () =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let ready = ref false in
  let waiter () =
    Mutex.lock mu;
    while not !ready do
      Condition.wait cond mu
    done;
    assert !ready;
    Mutex.unlock mu
  in
  let signaller () =
    Mutex.lock mu;
    ready := true;
    Condition.signal cond;
    Mutex.unlock mu
  in
  let w = Domain.spawn waiter in
  let s = Domain.spawn signaller in
  Domain.join w;
  Domain.join s

(* ---------------------------------------------------------------- *)
(* Scheduler tests.                                                  *)

let test_racy_counter_caught () =
  match Model.check racy_counter with
  | Model.Flagged v ->
    (match v.Model.v_kind with
    | Model.Assertion _ -> ()
    | k -> Alcotest.failf "wrong violation kind: %s" (Model.vkind_to_string k))
  | Model.Passed s ->
    Alcotest.failf "racy counter passed after %d execs" s.Model.execs
  | Model.Budget_exceeded _ -> Alcotest.fail "budget exceeded"

let test_safe_counter_passes () =
  match Model.check safe_counter with
  | Model.Passed s -> Alcotest.(check bool) "explored" true (s.Model.execs >= 1)
  | Model.Flagged v ->
    Alcotest.failf "safe counter flagged: %s"
      (Model.vkind_to_string v.Model.v_kind)
  | Model.Budget_exceeded _ -> Alcotest.fail "budget exceeded"

let test_seqlock_safe () =
  match Model.check (mini_seqlock ~bump_gen:true) with
  | Model.Passed _ -> ()
  | Model.Flagged v ->
    Alcotest.failf "seqlock flagged: %s\n%s"
      (Model.vkind_to_string v.Model.v_kind)
      (String.concat "\n" v.Model.v_trace)
  | Model.Budget_exceeded _ -> Alcotest.fail "budget exceeded"

let test_seqlock_mutant_caught () =
  match Model.check (mini_seqlock ~bump_gen:false) with
  | Model.Flagged v ->
    (match v.Model.v_kind with
    | Model.Assertion _ -> ()
    | k -> Alcotest.failf "wrong violation kind: %s" (Model.vkind_to_string k))
  | Model.Passed _ -> Alcotest.fail "generation-free seqlock not caught"
  | Model.Budget_exceeded _ -> Alcotest.fail "budget exceeded"

let test_missed_wakeup_deadlock () =
  match Model.check wait_no_predicate with
  | Model.Flagged v ->
    (match v.Model.v_kind with
    | Model.Deadlock -> ()
    | k -> Alcotest.failf "wrong violation kind: %s" (Model.vkind_to_string k))
  | Model.Passed _ -> Alcotest.fail "missed wakeup not caught"
  | Model.Budget_exceeded _ -> Alcotest.fail "budget exceeded"

let test_predicate_loop_passes () =
  match Model.check wait_with_predicate with
  | Model.Passed _ -> ()
  | Model.Flagged v ->
    Alcotest.failf "predicate-looped wait flagged: %s\n%s"
      (Model.vkind_to_string v.Model.v_kind)
      (String.concat "\n" v.Model.v_trace)
  | Model.Budget_exceeded _ -> Alcotest.fail "budget exceeded"

(* Replay from the printed schedule must reproduce the violation and
   the exact same step-by-step trace, twice in a row. *)
let test_replay_deterministic () =
  match Model.check racy_counter with
  | Model.Flagged v ->
    let k1, t1 = Model.replay racy_counter v.Model.v_schedule in
    let k2, t2 = Model.replay racy_counter v.Model.v_schedule in
    Alcotest.(check bool) "violation reproduced" true (k1 <> None);
    Alcotest.(check bool) "reproduced again" true (k2 <> None);
    Alcotest.(check (list string)) "same trace" t1 t2;
    Alcotest.(check (list string)) "matches original" v.Model.v_trace t1
  | _ -> Alcotest.fail "racy counter should be flagged"

(* DPOR reduction sanity: two fibers touching different atomics are
   independent — one interleaving suffices.  Same atomic with a write:
   at least two. *)
let test_dpor_reduction () =
  let disjoint () =
    let a = Atomic.make 0 and b = Atomic.make 0 in
    let d1 = Domain.spawn (fun () -> Atomic.incr a) in
    let d2 = Domain.spawn (fun () -> Atomic.incr b) in
    Domain.join d1;
    Domain.join d2
  in
  let conflicting () =
    let a = Atomic.make 0 in
    let d1 = Domain.spawn (fun () -> Atomic.incr a) in
    let d2 = Domain.spawn (fun () -> Atomic.incr a) in
    Domain.join d1;
    Domain.join d2
  in
  (match Model.check disjoint with
  | Model.Passed s ->
    Alcotest.(check int) "disjoint ops need one execution" 1 s.Model.execs
  | _ -> Alcotest.fail "disjoint harness flagged");
  match Model.check conflicting with
  | Model.Passed s ->
    Alcotest.(check bool) "conflicting ops explored" true (s.Model.execs >= 2)
  | _ -> Alcotest.fail "conflicting harness flagged"

let test_schedule_roundtrip () =
  let s = [ 0; 1; 1; 0; 2 ] in
  Alcotest.(check (list int))
    "roundtrip" s
    (Model.schedule_of_string (Model.schedule_to_string s))

(* ---------------------------------------------------------------- *)
(* Bundled harnesses: a fast subset runs in the unit suite (the full  *)
(* catalogue is the `ctg_race check` CI gate).                        *)

let run_harness_test name () =
  match Harness.find name with
  | None -> Alcotest.failf "harness %s not bundled" name
  | Some h -> (
    match
      Model.check ~max_execs:h.Harness.h_max_execs
        ~spin_limit:h.Harness.h_spin_limit h.Harness.h_fn
    with
    | Model.Passed s ->
      if h.Harness.h_expect_violation then
        Alcotest.failf "mutant %s not caught (%d execs)" name s.Model.execs
    | Model.Flagged v ->
      if not h.Harness.h_expect_violation then
        Alcotest.failf "harness %s flagged: %s\n%s" name
          (Model.vkind_to_string v.Model.v_kind)
          (String.concat "\n" v.Model.v_trace)
    | Model.Budget_exceeded s ->
      Alcotest.failf "harness %s exceeded budget (%d execs)" name s.Model.execs
    )

let harness_cases =
  List.map
    (fun name -> Alcotest.test_case name `Quick (run_harness_test name))
    [
      "seqlock";
      "pool_chunkq";
      "pool_chunkq_abort";
      "pool_cursor_fail";
      "batcher_stop";
      "batcher_spawn";
      "keyring";
      "trace_ring";
      "racy_counter";
      "seqlock_nogen";
      "trace_ring_mutant";
    ]

(* ---------------------------------------------------------------- *)
(* Static lint: scan_string over focused snippets.                    *)

let scan src =
  match Lint.scan_string ~filename:"snippet.ml" src with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "parse error: %s" e

let rules fs = List.map (fun f -> Lint.rule_id f.Lint.f_rule) fs

let test_lint_naked_atomic () =
  let fs = scan "let f c = Atomic.incr c\n" in
  Alcotest.(check (list string)) "flagged" [ "R1-shim-coverage" ] (rules fs)

let test_lint_shim_open_clean () =
  let fs = scan "open Ctg_sync.Shim\nlet f c = Atomic.incr c\n" in
  Alcotest.(check (list string)) "clean" [] (rules fs)

let test_lint_stdlib_bypass () =
  let fs =
    scan "open Ctg_sync.Shim\nlet f c = Stdlib.Atomic.incr c\n"
  in
  Alcotest.(check (list string)) "flagged" [ "R1-shim-coverage" ] (rules fs)

let test_lint_wait_no_loop () =
  let fs =
    scan
      "open Ctg_sync.Shim\nlet f c m = Mutex.lock m; Condition.wait c m\n"
  in
  Alcotest.(check (list string)) "flagged" [ "R2-predicate-loop" ] (rules fs)

let test_lint_wait_in_while () =
  let fs =
    scan
      "open Ctg_sync.Shim\n\
       let f c m p = Mutex.lock m; while not !p do Condition.wait c m done\n"
  in
  Alcotest.(check (list string)) "clean" [] (rules fs)

let test_lint_wait_in_let_rec () =
  let fs =
    scan
      "open Ctg_sync.Shim\n\
       let f c m p =\n\
      \  Mutex.lock m;\n\
      \  let rec go () = if not !p then (Condition.wait c m; go ()) in\n\
      \  go ()\n"
  in
  Alcotest.(check (list string)) "clean" [] (rules fs)

let test_lint_module_ref () =
  let fs = scan "let registry = ref []\n" in
  Alcotest.(check (list string)) "flagged" [ "R3-guarded-global" ] (rules fs)

let test_lint_guarded_ref () =
  let fs = scan "let registry = ref [] [@@race.guarded \"reg_mutex\"]\n" in
  Alcotest.(check (list string)) "clean" [] (rules fs)

let test_lint_local_ref_ok () =
  let fs = scan "let f () = let c = ref 0 in incr c; !c\n" in
  Alcotest.(check (list string)) "clean" [] (rules fs)

let test_lint_module_lazy () =
  let fs = scan "let table = lazy (build ())\n" in
  Alcotest.(check (list string)) "flagged" [ "R4-no-global-lazy" ] (rules fs)

let test_lint_tree_clean () =
  (* The migrated tree itself must be lint-clean — this is the same scan
     CI runs via `ctg_lint race`. *)
  let root = "../../.." in
  if Sys.file_exists (Filename.concat root "lib/engine") then begin
    let findings, errors, files = Lint.scan_dirs ~root () in
    Alcotest.(check (list string)) "no parse errors" [] errors;
    Alcotest.(check bool) "scanned files" true (files > 0);
    List.iter
      (fun f -> Format.printf "%a@." Lint.pp_finding f)
      findings;
    Alcotest.(check int) "no findings" 0 (List.length findings)
  end

let () =
  Alcotest.run "race"
    [
      ( "model",
        [
          Alcotest.test_case "racy counter caught" `Quick
            test_racy_counter_caught;
          Alcotest.test_case "safe counter passes" `Quick
            test_safe_counter_passes;
          Alcotest.test_case "mini seqlock safe" `Quick test_seqlock_safe;
          Alcotest.test_case "seqlock mutant caught" `Quick
            test_seqlock_mutant_caught;
          Alcotest.test_case "missed wakeup = deadlock" `Quick
            test_missed_wakeup_deadlock;
          Alcotest.test_case "predicate loop passes" `Quick
            test_predicate_loop_passes;
          Alcotest.test_case "replay deterministic" `Quick
            test_replay_deterministic;
          Alcotest.test_case "dpor reduction" `Quick test_dpor_reduction;
          Alcotest.test_case "schedule roundtrip" `Quick
            test_schedule_roundtrip;
        ] );
      ("harness", harness_cases);
      ( "lint",
        [
          Alcotest.test_case "naked atomic flagged" `Quick
            test_lint_naked_atomic;
          Alcotest.test_case "shim open clean" `Quick test_lint_shim_open_clean;
          Alcotest.test_case "stdlib bypass flagged" `Quick
            test_lint_stdlib_bypass;
          Alcotest.test_case "wait without loop flagged" `Quick
            test_lint_wait_no_loop;
          Alcotest.test_case "wait in while clean" `Quick
            test_lint_wait_in_while;
          Alcotest.test_case "wait in let rec clean" `Quick
            test_lint_wait_in_let_rec;
          Alcotest.test_case "module-level ref flagged" `Quick
            test_lint_module_ref;
          Alcotest.test_case "guarded ref clean" `Quick test_lint_guarded_ref;
          Alcotest.test_case "local ref clean" `Quick test_lint_local_ref_ok;
          Alcotest.test_case "module-level lazy flagged" `Quick
            test_lint_module_lazy;
          Alcotest.test_case "migrated tree clean" `Quick test_lint_tree_clean;
        ] );
    ]
