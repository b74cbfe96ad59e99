(* End-to-end tests: IR module -> compile -> VM execution, checked against
   direct kernel evaluation. *)

open Nimble_tensor
open Nimble_ir
module Nimble = Nimble_compiler.Nimble
module Interp = Nimble_vm.Interp
module Obj = Nimble_vm.Obj

let tensor_eq = Alcotest.testable Tensor.pp (Tensor.approx_equal ~atol:1e-4 ~rtol:1e-4)

let rng = Rng.create ~seed:7

let static_ty s = Ty.tensor_of_shape (Shape.of_list s)
let dyn_ty dims = Ty.tensor dims

(* --- a static elementwise graph: relu(a + b) * a ---------------------- *)
let static_module () =
  let a = Expr.fresh_var ~ty:(static_ty [ 4; 5 ]) "a" in
  let b = Expr.fresh_var ~ty:(static_ty [ 4; 5 ]) "b" in
  let body =
    Expr.op_call "multiply"
      [ Expr.op_call "relu" [ Expr.op_call "add" [ Expr.Var a; Expr.Var b ] ]; Expr.Var a ]
  in
  Irmod.of_main (Expr.fn_def [ a; b ] body)

let expected_static a b = Ops_elem.mul (Ops_elem.relu (Ops_elem.add a b)) a

let test_static_e2e () =
  let m = static_module () in
  let a = Tensor.randn rng [| 4; 5 |] and b = Tensor.randn rng [| 4; 5 |] in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let out = Interp.run_tensors vm [ a; b ] in
  Alcotest.check tensor_eq "relu(a+b)*a" (expected_static a b) out

(* --- a dynamic-shape graph: dense with Any rows ------------------------ *)
let dyn_dense_module () =
  let x = Expr.fresh_var ~ty:(dyn_ty [ Dim.Any; Dim.static 16 ]) "x" in
  let w = Expr.fresh_var ~ty:(static_ty [ 8; 16 ]) "w" in
  let b = Expr.fresh_var ~ty:(static_ty [ 8 ]) "b" in
  let body =
    Expr.op_call "tanh"
      [ Expr.op_call "bias_add" [ Expr.op_call "dense" [ Expr.Var x; Expr.Var w ]; Expr.Var b ] ]
  in
  Irmod.of_main (Expr.fn_def [ x; w; b ] body)

let test_dynamic_dense () =
  let m = dyn_dense_module () in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let w = Tensor.randn rng [| 8; 16 |] and b = Tensor.randn rng [| 8 |] in
  (* one executable serves several sequence lengths, covering odd residues *)
  List.iter
    (fun rows ->
      let x = Tensor.randn rng [| rows; 16 |] in
      let out = Interp.run_tensors vm [ x; w; b ] in
      let expected = Ops_elem.tanh (Ops_matmul.dense_bias x w b) in
      Alcotest.check tensor_eq (Fmt.str "rows=%d" rows) expected out)
    [ 1; 3; 8; 13; 16; 21 ]

(* --- control flow: if mean(x) > 0 then x+1 else x-1 -------------------- *)
let control_flow_module () =
  let x = Expr.fresh_var ~ty:(static_ty [ 6 ]) "x" in
  let cond =
    Expr.op_call "greater" [ Expr.op_call "mean" [ Expr.Var x ]; Expr.const_scalar 0.0 ]
  in
  let body =
    Expr.If
      ( cond,
        Expr.op_call "add" [ Expr.Var x; Expr.const_scalar 1.0 ],
        Expr.op_call "subtract" [ Expr.Var x; Expr.const_scalar 1.0 ] )
  in
  Irmod.of_main (Expr.fn_def [ x ] body)

let test_control_flow () =
  let m = control_flow_module () in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let pos = Tensor.full [| 6 |] 2.0 in
  let neg = Tensor.full [| 6 |] (-2.0) in
  Alcotest.check tensor_eq "positive branch" (Tensor.full [| 6 |] 3.0)
    (Interp.run_tensors vm [ pos ]);
  Alcotest.check tensor_eq "negative branch"
    (Tensor.full [| 6 |] (-3.0))
    (Interp.run_tensors vm [ neg ])

(* --- recursion over an ADT list: sum all tensors ----------------------- *)
let list_sum_module () =
  let elem_ty = static_ty [ 3 ] in
  let list_adt = Adt.tensor_list ~elem_ty in
  let nil = Adt.ctor_exn list_adt "Nil" in
  let cons = Adt.ctor_exn list_adt "Cons" in
  ignore nil;
  let xs = Expr.fresh_var ~ty:(Ty.Adt "TensorList") "xs" in
  let acc = Expr.fresh_var ~ty:elem_ty "acc" in
  let hd = Expr.fresh_var ~ty:elem_ty "hd" in
  let tl = Expr.fresh_var ~ty:(Ty.Adt "TensorList") "tl" in
  let body =
    Expr.Match
      ( Expr.Var xs,
        [
          { Expr.pat = Expr.Pctor (nil, []); rhs = Expr.Var acc };
          {
            Expr.pat = Expr.Pctor (cons, [ Expr.Pvar hd; Expr.Pvar tl ]);
            rhs =
              Expr.call (Expr.Global "sum_list")
                [ Expr.Var tl; Expr.op_call "add" [ Expr.Var acc; Expr.Var hd ] ];
          };
        ] )
  in
  let m = Irmod.create () in
  Irmod.add_adt m list_adt;
  Irmod.add_func m "sum_list" (Expr.fn_def ~ret_ty:elem_ty [ xs; acc ] body);
  let xs0 = Expr.fresh_var ~ty:(Ty.Adt "TensorList") "input" in
  Irmod.add_func m "main"
    (Expr.fn_def [ xs0 ]
       (Expr.call (Expr.Global "sum_list")
          [ Expr.Var xs0; Expr.Const (Tensor.zeros [| 3 |]) ]));
  (m, nil, cons)

let obj_list_of_tensors cons_tag ts =
  List.fold_right
    (fun t acc -> Obj.Adt { tag = cons_tag; fields = [| Obj.tensor t; acc |] })
    ts
    (Obj.Adt { tag = 0 (* Nil is first ctor *); fields = [||] })

let test_adt_recursion () =
  let m, nil, cons = list_sum_module () in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let ts = List.init 5 (fun _ -> Tensor.randn rng [| 3 |]) in
  let input =
    List.fold_right
      (fun t acc -> Obj.Adt { tag = cons.Adt.tag; fields = [| Obj.tensor t; acc |] })
      ts
      (Obj.Adt { tag = nil.Adt.tag; fields = [||] })
  in
  let out = Obj.to_tensor (Interp.invoke vm [ input ]) in
  let expected = List.fold_left Ops_elem.add (Tensor.zeros [| 3 |]) ts in
  Alcotest.check tensor_eq "list sum" expected out

(* --- data-dependent shapes: unique ------------------------------------- *)
let test_data_dependent () =
  let x = Expr.fresh_var ~ty:(static_ty [ 8 ]) "x" in
  let m =
    Irmod.of_main
      (Expr.fn_def [ x ]
         (Expr.op_call "add"
            [ Expr.op_call "unique" [ Expr.Var x ]; Expr.const_scalar 0.0 ]))
  in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let x = Tensor.of_float_array [| 8 |] [| 1.; 2.; 1.; 3.; 2.; 1.; 4.; 4. |] in
  let out = Interp.run_tensors vm [ x ] in
  Alcotest.check tensor_eq "unique" (Tensor.of_float_array [| 4 |] [| 1.; 2.; 3.; 4. |]) out

(* --- upper-bound shapes: nms ------------------------------------------- *)
let test_upper_bound () =
  let x = Expr.fresh_var ~ty:(static_ty [ 4; 5 ]) "boxes" in
  let m =
    Irmod.of_main
      (Expr.fn_def [ x ]
         (Expr.op_call ~attrs:[ ("iou", Attrs.Float 0.5) ] "nms" [ Expr.Var x ]))
  in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  (* two overlapping boxes + one distinct: nms keeps 2 of 3 scored boxes *)
  let boxes =
    Tensor.of_float_array [| 4; 5 |]
      [|
        0.9; 0.0; 0.0; 10.0; 10.0;
        0.8; 1.0; 1.0; 10.0; 10.0;
        0.7; 20.0; 20.0; 30.0; 30.0;
        0.6; 21.0; 21.0; 30.0; 30.0;
      |]
  in
  let out = Interp.run_tensors vm [ boxes ] in
  Alcotest.(check int) "kept boxes" 2 (Tensor.shape out).(0)

(* --- compile report sanity --------------------------------------------- *)
let test_report () =
  let m = dyn_dense_module () in
  let _, report = Nimble.compile_with_report m in
  Alcotest.(check bool) "some primitives" true (report.Nimble.primitives >= 1);
  Alcotest.(check bool) "instructions emitted" true (report.Nimble.instructions > 3)

(* --- static executor agrees with the VM -------------------------------- *)
let test_static_executor () =
  let m = static_module () in
  let plan = Nimble.compile_static m in
  let a = Tensor.randn rng [| 4; 5 |] and b = Tensor.randn rng [| 4; 5 |] in
  let out = Nimble_compiler.Static_exec.run plan [ a; b ] in
  Alcotest.check tensor_eq "static executor" (expected_static a b) out

(* --- closures ----------------------------------------------------------- *)
let test_closure () =
  (* let f = fn y -> y + x in f(x) : doubles x through a capture *)
  let x = Expr.fresh_var ~ty:(static_ty [ 3 ]) "x" in
  let y = Expr.fresh_var ~ty:(static_ty [ 3 ]) "y" in
  let f = Expr.fresh_var "f" in
  let body =
    Expr.Let
      ( f,
        Expr.fn [ y ] (Expr.op_call "add" [ Expr.Var y; Expr.Var x ]),
        Expr.call (Expr.Var f) [ Expr.Var x ] )
  in
  let m = Irmod.of_main (Expr.fn_def [ x ] body) in
  let exe = Nimble.compile m in
  let vm = Nimble.vm exe in
  let xv = Tensor.randn rng [| 3 |] in
  Alcotest.check tensor_eq "closure capture" (Ops_elem.add xv xv)
    (Interp.run_tensors vm [ xv ])

(* --- a helper global called twice: Invoke of a non-recursive function --- *)
let helper_module () =
  let m = Irmod.create () in
  let a = Expr.fresh_var ~ty:(static_ty [ 4 ]) "a" in
  Irmod.add_func m "double" (Expr.fn_def [ a ] (Expr.op_call "add" [ Expr.Var a; Expr.Var a ]));
  let x = Expr.fresh_var ~ty:(static_ty [ 4 ]) "x" in
  Irmod.add_func m "main"
    (Expr.fn_def [ x ]
       (Expr.call (Expr.Global "double")
          [ Expr.call (Expr.Global "double") [ Expr.Var x ] ]));
  m

let test_helper_global () =
  let input = Tensor.randn rng [| 4 |] in
  let out = Interp.run_tensors (Nimble.vm (Nimble.compile (helper_module ()))) [ input ] in
  Alcotest.check tensor_eq "4x" (Ops_elem.mul_scalar input 4.0) out

(* --- compiling the same module twice ------------------------------------ *)

(* every zoo model's module with one input for it *)
let zoo_cases () : (string * Irmod.t * Obj.t) list =
  let open Nimble_models in
  let seq xs =
    let adt = Adt.tensor_list ~elem_ty:(dyn_ty [ Dim.static 1; Dim.Any ]) in
    let nil = Adt.ctor_exn adt "Nil" and cons = Adt.ctor_exn adt "Cons" in
    List.fold_right
      (fun x acc -> Obj.Adt { tag = cons.Adt.tag; fields = [| Obj.tensor x; acc |] })
      xs
      (Obj.Adt { tag = nil.Adt.tag; fields = [||] })
  in
  let lstm = Lstm.init_weights Lstm.small_config in
  let gru = Gru.init_weights Gru.small_config in
  let tree = Tree_lstm.init_weights Tree_lstm.small_config in
  let s2s = Seq2seq.init_weights Seq2seq.default_config in
  let dec = Decoder.init_weights Decoder.default_config in
  let pe = Posenc.init_weights Posenc.default_config in
  let bert = Bert.init_weights Bert.small_config in
  let leaf, node = Tree_lstm.ctors tree in
  let tree_leaf () =
    Obj.Adt
      {
        tag = leaf.Adt.tag;
        fields = [| Obj.tensor (Tensor.randn rng [| 1; tree.Tree_lstm.config.Tree_lstm.input_size |]) |];
      }
  in
  [
    ("lstm", Lstm.ir_module lstm, seq (Lstm.random_sequence lstm.Lstm.config ~len:5));
    ("gru", Gru.ir_module gru, seq (Gru.random_sequence gru.Gru.config ~len:5));
    ( "treelstm",
      Tree_lstm.ir_module tree,
      Obj.Adt { tag = node.Adt.tag; fields = [| tree_leaf (); tree_leaf () |] } );
    ("seq2seq", Seq2seq.ir_module s2s, seq (Seq2seq.random_sequence s2s.Seq2seq.config ~len:4));
    ("decoder", Decoder.ir_module dec, Obj.tensor (Decoder.random_state dec.Decoder.config));
    ("posenc", Posenc.ir_module pe, Obj.tensor (Posenc.random_input pe ~len:7));
    ("bert", Bert.ir_module bert, Obj.tensor (Bert.embed bert (Bert.random_ids bert ~len:9)));
  ]
  @ List.map (fun (n, build) -> (n, build (), Obj.tensor (Vision.random_input ()))) Vision.all

let test_compile_twice () =
  List.iter
    (fun (name, m, input) ->
      let run () =
        let exe, report = Nimble.compile_with_report m in
        Alcotest.(check int) (name ^ ": no violations") 0 (List.length report.Nimble.verify_diags);
        Obj.to_tensor (Interp.invoke (Nimble.vm exe) [ input ])
      in
      let first = run () in
      Alcotest.(check bool) (name ^ ": second compile, equal output") true
        (Tensor.equal first (run ())))
    (zoo_cases ())

(* compiling leaves the argument's function table as it was: same names,
   same function values *)
let test_argument_functions_kept () =
  List.iter
    (fun (name, m, _) ->
      let before = Irmod.functions m in
      ignore (Nimble.compile m);
      let after = Irmod.functions m in
      Alcotest.(check (list string)) (name ^ ": names") (List.map fst before) (List.map fst after);
      Alcotest.(check bool) (name ^ ": same functions") true
        (List.for_all2 (fun (_, f) (_, g) -> f == g) before after))
    (zoo_cases ())

let test_compile_static_twice () =
  let m = static_module () in
  let a = Tensor.randn rng [| 4; 5 |] and b = Tensor.randn rng [| 4; 5 |] in
  List.iter
    (fun label ->
      let out = Nimble_compiler.Static_exec.run (Nimble.compile_static m) [ a; b ] in
      Alcotest.check tensor_eq label (expected_static a b) out)
    [ "first"; "second" ]

(* --- programs with redundancy: duplicate, constant and dead code and
   helper globals go through the pipeline as written and still compute
   the right result with a clean verify report -------------------------- *)

let run_clean m inputs =
  let exe, report = Nimble.compile_with_report m in
  Alcotest.(check int) "no violations" 0 (List.length report.Nimble.verify_diags);
  Interp.run_tensors (Nimble.vm exe) inputs

let test_duplicate_subtrees () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  (* two structurally identical but physically distinct subtrees *)
  let e =
    Expr.op_call "add" [ Expr.op_call "relu" [ Expr.Var x ]; Expr.op_call "relu" [ Expr.Var x ] ]
  in
  let xv = Tensor.of_float_array [| 2 |] [| -1.5; 2.0 |] in
  Alcotest.check tensor_eq "2 relu(x)"
    (Tensor.of_float_array [| 2 |] [| 0.0; 4.0 |])
    (run_clean (Irmod.of_main (Expr.fn_def [ x ] e)) [ xv ])

let test_same_op_both_branches () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let c = Expr.fresh_var ~ty:Ty.bool_scalar "c" in
  let relu () = Expr.op_call "relu" [ Expr.Var x ] in
  let e = Expr.If (Expr.Var c, relu (), Expr.op_call "add" [ relu (); Expr.const_scalar 1.0 ]) in
  let m = Irmod.of_main (Expr.fn_def [ x; c ] e) in
  let xv = Tensor.of_float_array [| 2 |] [| -1.0; 3.0 |] in
  let flag v = Tensor.scalar ~dtype:Dtype.U8 v in
  Alcotest.check tensor_eq "then" (Tensor.of_float_array [| 2 |] [| 0.0; 3.0 |])
    (run_clean m [ xv; flag 1.0 ]);
  Alcotest.check tensor_eq "else" (Tensor.of_float_array [| 2 |] [| 1.0; 4.0 |])
    (run_clean m [ xv; flag 0.0 ])

let test_constant_arithmetic () =
  let x = Expr.fresh_var ~ty:(static_ty [ 3 ]) "x" in
  let five = Expr.op_call "add" [ Expr.const_scalar 2.0; Expr.const_scalar 3.0 ] in
  let m = Irmod.of_main (Expr.fn_def [ x ] (Expr.op_call "multiply" [ Expr.Var x; five ])) in
  let xv = Tensor.randn rng [| 3 |] in
  Alcotest.check tensor_eq "5x" (Ops_elem.mul_scalar xv 5.0) (run_clean m [ xv ])

let test_constant_condition () =
  let x = Expr.fresh_var ~ty:(static_ty [ 3 ]) "x" in
  let e =
    Expr.If
      ( Expr.Const (Tensor.scalar ~dtype:Dtype.U8 1.0),
        Expr.op_call "add" [ Expr.Var x; Expr.const_scalar 10.0 ],
        Expr.op_call "add" [ Expr.Var x; Expr.const_scalar 20.0 ] )
  in
  let xv = Tensor.randn rng [| 3 |] in
  Alcotest.check tensor_eq "true branch" (Ops_elem.add xv (Tensor.full [| 3 |] 10.0))
    (run_clean (Irmod.of_main (Expr.fn_def [ x ] e)) [ xv ])

let test_dead_let_chain () =
  let x = Expr.fresh_var ~ty:(static_ty [ 2 ]) "x" in
  let a = Expr.fresh_var "a" and b = Expr.fresh_var "b" in
  let e =
    Expr.Let
      ( a,
        Expr.op_call "relu" [ Expr.Var x ],
        Expr.Let (b, Expr.op_call "tanh" [ Expr.Var a ], Expr.op_call "negative" [ Expr.Var x ]) )
  in
  let xv = Tensor.randn rng [| 2 |] in
  Alcotest.check tensor_eq "-x" (Ops_elem.mul_scalar xv (-1.0))
    (run_clean (Irmod.of_main (Expr.fn_def [ x ] e)) [ xv ])

(* a module carrying a recursive global that main never calls *)
let test_unreachable_global () =
  let m, _, _ = list_sum_module () in
  let x = Expr.fresh_var ~ty:(static_ty [ 3 ]) "x" in
  Irmod.add_func m "main" (Expr.fn_def [ x ] (Expr.op_call "tanh" [ Expr.Var x ]));
  let xv = Tensor.randn rng [| 3 |] in
  Alcotest.check tensor_eq "tanh" (Ops_elem.tanh xv) (run_clean m [ xv ])

(* a 40-op helper called from two sites *)
let test_long_helper () =
  let m = Irmod.create () in
  let a = Expr.fresh_var ~ty:(static_ty [ 4 ]) "a" in
  let rec chain n e = if n = 0 then e else chain (n - 1) (Expr.op_call "add" [ e; Expr.const_scalar 0.5 ]) in
  Irmod.add_func m "shift" (Expr.fn_def [ a ] (chain 40 (Expr.Var a)));
  let x = Expr.fresh_var ~ty:(static_ty [ 4 ]) "x" in
  Irmod.add_func m "main"
    (Expr.fn_def [ x ]
       (Expr.op_call "multiply"
          [ Expr.call (Expr.Global "shift") [ Expr.Var x ]; Expr.call (Expr.Global "shift") [ Expr.Var x ] ]));
  let xv = Tensor.randn rng [| 4 |] in
  let shifted = Ops_elem.add xv (Tensor.full [| 4 |] 20.0) in
  Alcotest.check tensor_eq "(x+20)^2" (Ops_elem.mul shifted shifted) (run_clean m [ xv ])

(* a helper with let-bound locals whose two call sites feed each other *)
let test_helper_locals () =
  let m = Irmod.create () in
  let a = Expr.fresh_var ~ty:(static_ty [ 4 ]) "a" in
  let t = Expr.fresh_var "t" in
  Irmod.add_func m "step"
    (Expr.fn_def [ a ]
       (Expr.Let (t, Expr.op_call "tanh" [ Expr.Var a ], Expr.op_call "add" [ Expr.Var t; Expr.Var a ])));
  let x = Expr.fresh_var ~ty:(static_ty [ 4 ]) "x" in
  Irmod.add_func m "main"
    (Expr.fn_def [ x ]
       (Expr.call (Expr.Global "step") [ Expr.call (Expr.Global "step") [ Expr.Var x ] ]));
  let step v = Ops_elem.add (Ops_elem.tanh v) v in
  let xv = Tensor.randn rng [| 4 |] in
  Alcotest.check tensor_eq "step (step x)" (step (step xv)) (run_clean m [ xv ])

(* --- executable validation ---------------------------------------------- *)
let test_validate_accepts_compiled () =
  let w = Nimble_models.Lstm.init_weights Nimble_models.Lstm.small_config in
  let exe = Nimble.compile (Nimble_models.Lstm.ir_module w) in
  Alcotest.(check (list string)) "clean" [] (Nimble_vm.Exe.validate exe)

let bad_exe code ~regs =
  Nimble_vm.Exe.create
    ~funcs:[| { Nimble_vm.Exe.name = "main"; arity = 0; register_count = regs; code } |]
    ~constants:[||] ~packed_names:[||]

let test_validate_catches_bad_register () =
  let exe = bad_exe ~regs:1 [| Nimble_vm.Isa.Move { src = 5; dst = 0 }; Nimble_vm.Isa.Ret { result = 0 } |] in
  Alcotest.(check bool) "flagged" true (Nimble_vm.Exe.validate exe <> [])

let test_validate_catches_bad_jump () =
  let exe = bad_exe ~regs:1 [| Nimble_vm.Isa.Goto 99 |] in
  Alcotest.(check bool) "flagged" true (Nimble_vm.Exe.validate exe <> [])

let test_validate_catches_bad_const () =
  let exe =
    bad_exe ~regs:1
      [| Nimble_vm.Isa.LoadConst { index = 3; dst = 0 }; Nimble_vm.Isa.Ret { result = 0 } |]
  in
  Alcotest.(check bool) "flagged" true (Nimble_vm.Exe.validate exe <> [])

let test_validate_catches_fallthrough () =
  let exe = bad_exe ~regs:1 [| Nimble_vm.Isa.Move { src = 0; dst = 0 } |] in
  Alcotest.(check bool) "flagged" true (Nimble_vm.Exe.validate exe <> [])

let test_validate_catches_arity_mismatch () =
  let f0 =
    {
      Nimble_vm.Exe.name = "main";
      arity = 0;
      register_count = 2;
      code =
        [|
          Nimble_vm.Isa.Invoke { func_index = 1; args = [| 0 |]; dst = 1 };
          Nimble_vm.Isa.Ret { result = 1 };
        |];
    }
  in
  let f1 =
    { Nimble_vm.Exe.name = "two"; arity = 2; register_count = 2; code = [| Nimble_vm.Isa.Ret { result = 0 } |] }
  in
  let exe = Nimble_vm.Exe.create ~funcs:[| f0; f1 |] ~constants:[||] ~packed_names:[||] in
  Alcotest.(check bool) "flagged" true (Nimble_vm.Exe.validate exe <> [])

let () =
  ignore obj_list_of_tensors;
  Alcotest.run "compiler"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "static elementwise graph" `Quick test_static_e2e;
          Alcotest.test_case "dynamic dense (Any rows)" `Quick test_dynamic_dense;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "ADT recursion (list sum)" `Quick test_adt_recursion;
          Alcotest.test_case "data-dependent shape (unique)" `Quick test_data_dependent;
          Alcotest.test_case "upper-bound shape (nms)" `Quick test_upper_bound;
          Alcotest.test_case "compile report" `Quick test_report;
          Alcotest.test_case "static executor" `Quick test_static_executor;
          Alcotest.test_case "closure capture" `Quick test_closure;
          Alcotest.test_case "helper global (semantics preserved)" `Quick test_helper_global;
          Alcotest.test_case "zoo compiles twice" `Quick test_compile_twice;
          Alcotest.test_case "argument functions kept" `Quick test_argument_functions_kept;
          Alcotest.test_case "compile_static twice" `Quick test_compile_static_twice;
        ] );
      ( "redundant programs",
        [
          Alcotest.test_case "duplicate subtrees" `Quick test_duplicate_subtrees;
          Alcotest.test_case "same op in both branches" `Quick test_same_op_both_branches;
          Alcotest.test_case "constant arithmetic" `Quick test_constant_arithmetic;
          Alcotest.test_case "constant condition" `Quick test_constant_condition;
          Alcotest.test_case "dead let chain" `Quick test_dead_let_chain;
          Alcotest.test_case "unreachable recursive global" `Quick test_unreachable_global;
          Alcotest.test_case "long helper, two call sites" `Quick test_long_helper;
          Alcotest.test_case "helper with locals" `Quick test_helper_locals;
        ] );
      ( "validate",
        [
          Alcotest.test_case "compiled passes" `Quick test_validate_accepts_compiled;
          Alcotest.test_case "bad register" `Quick test_validate_catches_bad_register;
          Alcotest.test_case "bad jump" `Quick test_validate_catches_bad_jump;
          Alcotest.test_case "bad constant" `Quick test_validate_catches_bad_const;
          Alcotest.test_case "fallthrough" `Quick test_validate_catches_fallthrough;
          Alcotest.test_case "arity mismatch" `Quick test_validate_catches_arity_mismatch;
        ] );
    ]
