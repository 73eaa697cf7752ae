(* Unit tests for the instruction set and IR. *)

open Ocolos_isa

let all_instrs =
  [ Instr.Nop;
    Instr.Alu (Instr.Add, 0, 1, 2);
    Instr.Alui (Instr.Xor, 3, 4, 17);
    Instr.Movi (5, 99);
    Instr.Load (1, 2, 8);
    Instr.Store (1, 2, 8);
    Instr.Branch (Instr.Lt, 3, 0x100);
    Instr.Jump 0x200;
    Instr.JumpInd 4;
    Instr.Call 0x300;
    Instr.CallInd 5;
    Instr.Ret;
    Instr.FpCreate (6, 0x400);
    Instr.VtLoad (7, 1, 2);
    Instr.Rand (8, 100);
    Instr.TxMark;
    Instr.Halt ]

let test_sizes_positive () =
  List.iter
    (fun i -> Alcotest.(check bool) (Instr.to_string i) true (Instr.size i > 0))
    all_instrs

let test_sizes_bounded () =
  List.iter
    (fun i -> Alcotest.(check bool) (Instr.to_string i) true (Instr.size i <= Instr.max_size))
    all_instrs;
  Alcotest.(check int) "max_size is attained" Instr.max_size
    (List.fold_left (fun m i -> max m (Instr.size i)) 0 all_instrs)

let test_control_flow_classification () =
  Alcotest.(check bool) "branch is cf" true (Instr.is_control_flow (Instr.Branch (Instr.Eq, 0, 0)));
  Alcotest.(check bool) "call is cf" true (Instr.is_control_flow (Instr.Call 0));
  Alcotest.(check bool) "alu not cf" false (Instr.is_control_flow (Instr.Alu (Instr.Add, 0, 0, 0)));
  Alcotest.(check bool) "fpcreate not cf" false (Instr.is_control_flow (Instr.FpCreate (0, 0)));
  Alcotest.(check bool) "call not terminator" false (Instr.is_terminator (Instr.Call 0));
  Alcotest.(check bool) "ret terminator" true (Instr.is_terminator Instr.Ret);
  Alcotest.(check bool) "jumpind terminator" true (Instr.is_terminator (Instr.JumpInd 0))

let test_static_target () =
  Alcotest.(check (option int)) "branch" (Some 0x100)
    (Instr.static_target (Instr.Branch (Instr.Lt, 3, 0x100)));
  Alcotest.(check (option int)) "fpcreate" (Some 0x400)
    (Instr.static_target (Instr.FpCreate (6, 0x400)));
  Alcotest.(check (option int)) "callind" None (Instr.static_target (Instr.CallInd 5));
  Alcotest.(check (option int)) "ret" None (Instr.static_target Instr.Ret)

let test_with_target () =
  let i = Instr.with_target (Instr.Call 0x300) 0x999 in
  Alcotest.(check (option int)) "retargeted" (Some 0x999) (Instr.static_target i);
  Alcotest.check_raises "no target"
    (Invalid_argument "Instr.with_target: instruction has no static target") (fun () ->
      ignore (Instr.with_target Instr.Ret 0))

let test_with_target_preserves_size () =
  List.iter
    (fun i ->
      match Instr.static_target i with
      | Some _ ->
        Alcotest.(check int) (Instr.to_string i) (Instr.size i)
          (Instr.size (Instr.with_target i 0x123456))
      | None -> ())
    all_instrs

let test_eval_cond () =
  Alcotest.(check bool) "eq 0" true (Instr.eval_cond Instr.Eq 0);
  Alcotest.(check bool) "ne 0" false (Instr.eval_cond Instr.Ne 0);
  Alcotest.(check bool) "lt -1" true (Instr.eval_cond Instr.Lt (-1));
  Alcotest.(check bool) "ge 0" true (Instr.eval_cond Instr.Ge 0);
  Alcotest.(check bool) "gt 1" true (Instr.eval_cond Instr.Gt 1);
  Alcotest.(check bool) "le 1" false (Instr.eval_cond Instr.Le 1)

let test_eval_alu () =
  Alcotest.(check int) "add" 7 (Instr.eval_alu Instr.Add 3 4);
  Alcotest.(check int) "sub" (-1) (Instr.eval_alu Instr.Sub 3 4);
  Alcotest.(check int) "mul" 12 (Instr.eval_alu Instr.Mul 3 4);
  Alcotest.(check int) "xor" 7 (Instr.eval_alu Instr.Xor 3 4);
  Alcotest.(check int) "shl" 12 (Instr.eval_alu Instr.Shl 3 2);
  Alcotest.(check int) "shr" 1 (Instr.eval_alu Instr.Shr 4 2)

(* A two-function IR program used by several structural tests. *)
let small_program () =
  let callee =
    { Ir.fid = 1;
      fname = "callee";
      blocks = [| { Ir.bid = 0; body = [ Ir.Plain (Instr.Movi (0, 5)) ]; term = Ir.Tret } |] }
  in
  let main =
    { Ir.fid = 0;
      fname = "main";
      blocks =
        [| { Ir.bid = 0;
             body = [ Ir.SCall 1; Ir.Plain Instr.TxMark ];
             term = Ir.Tbranch (Instr.Eq, 0, 1, 1) };
           { Ir.bid = 1; body = []; term = Ir.Thalt } |] }
  in
  { Ir.funcs = [| main; callee |];
    vtables = [| [| 1 |] |];
    entry_fid = 0;
    globals_words = 4;
    global_init = [ (0, 42) ] }

let test_validate_ok () = Ir.validate (small_program ())

let test_validate_rejects_cf_in_body () =
  let p = small_program () in
  let bad =
    { Ir.fid = 1;
      fname = "callee";
      blocks = [| { Ir.bid = 0; body = [ Ir.Plain (Instr.Jump 0) ]; term = Ir.Tret } |] }
  in
  let p = { p with Ir.funcs = [| p.Ir.funcs.(0); bad |] } in
  Alcotest.(check bool) "raises" true
    (match Ir.validate p with exception Ir.Invalid _ -> true | () -> false)

let test_validate_rejects_bad_bid () =
  let p = small_program () in
  let bad =
    { Ir.fid = 1;
      fname = "callee";
      blocks = [| { Ir.bid = 0; body = []; term = Ir.Tjump 7 } |] }
  in
  let p = { p with Ir.funcs = [| p.Ir.funcs.(0); bad |] } in
  Alcotest.(check bool) "raises" true
    (match Ir.validate p with exception Ir.Invalid _ -> true | () -> false)

let test_validate_rejects_bad_callee () =
  let p = small_program () in
  let bad =
    { Ir.fid = 1;
      fname = "callee";
      blocks = [| { Ir.bid = 0; body = [ Ir.SCall 9 ]; term = Ir.Tret } |] }
  in
  let p = { p with Ir.funcs = [| p.Ir.funcs.(0); bad |] } in
  Alcotest.(check bool) "raises" true
    (match Ir.validate p with exception Ir.Invalid _ -> true | () -> false)

let test_lower_jump_tables () =
  let f =
    { Ir.fid = 0;
      fname = "switchy";
      blocks =
        [| { Ir.bid = 0; body = []; term = Ir.Tjump_table (2, [| 1; 2; 3 |]) };
           { Ir.bid = 1; body = []; term = Ir.Tret };
           { Ir.bid = 2; body = []; term = Ir.Tret };
           { Ir.bid = 3; body = []; term = Ir.Tret } |] }
  in
  let p =
    { Ir.funcs = [| f |]; vtables = [||]; entry_fid = 0; globals_words = 0; global_init = [] }
  in
  Alcotest.(check bool) "has tables" true (Ir.has_jump_tables p);
  let lowered = Ir.lower_jump_tables p in
  Alcotest.(check bool) "no tables left" false (Ir.has_jump_tables lowered);
  Ir.validate lowered;
  (* Existing block ids stable; extra compare blocks appended. *)
  Alcotest.(check bool) "blocks appended" true
    (Array.length lowered.Ir.funcs.(0).Ir.blocks > 4)

let test_block_successors () =
  let b = { Ir.bid = 0; body = []; term = Ir.Tbranch (Instr.Eq, 0, 3, 4) } in
  Alcotest.(check (list int)) "branch succs" [ 3; 4 ] (Ir.block_successors b);
  let b = { Ir.bid = 0; body = []; term = Ir.Tret } in
  Alcotest.(check (list int)) "ret succs" [] (Ir.block_successors b)

let test_instr_counts () =
  let p = small_program () in
  Alcotest.(check int) "program count" (Ir.program_instr_count p)
    (Array.fold_left (fun a f -> a + Ir.func_instr_count f) 0 p.Ir.funcs);
  Alcotest.(check bool) "positive" true (Ir.program_instr_count p > 0)

let suite =
  [ Alcotest.test_case "sizes positive" `Quick test_sizes_positive;
    Alcotest.test_case "sizes bounded by max_size" `Quick test_sizes_bounded;
    Alcotest.test_case "control-flow classification" `Quick test_control_flow_classification;
    Alcotest.test_case "static target" `Quick test_static_target;
    Alcotest.test_case "with_target" `Quick test_with_target;
    Alcotest.test_case "with_target preserves size" `Quick test_with_target_preserves_size;
    Alcotest.test_case "eval cond" `Quick test_eval_cond;
    Alcotest.test_case "eval alu" `Quick test_eval_alu;
    Alcotest.test_case "validate ok" `Quick test_validate_ok;
    Alcotest.test_case "validate rejects cf in body" `Quick test_validate_rejects_cf_in_body;
    Alcotest.test_case "validate rejects bad bid" `Quick test_validate_rejects_bad_bid;
    Alcotest.test_case "validate rejects bad callee" `Quick test_validate_rejects_bad_callee;
    Alcotest.test_case "lower jump tables" `Quick test_lower_jump_tables;
    Alcotest.test_case "block successors" `Quick test_block_successors;
    Alcotest.test_case "instr counts" `Quick test_instr_counts ]
