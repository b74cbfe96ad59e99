(* IR tests: dims, types, expressions, traversal, ADTs, modules, ops. *)

open Nimble_tensor
open Nimble_ir

let ty_eq = Alcotest.testable Ty.pp Ty.equal

(* ---------------------------- dims ---------------------------- *)

let test_dim_basic () =
  Alcotest.(check bool) "static" true (Dim.is_static (Dim.static 4));
  Alcotest.(check bool) "any dynamic" true (Dim.is_dynamic Dim.Any);
  Alcotest.(check bool) "sym dynamic" true (Dim.is_dynamic (Dim.Sym 1));
  Alcotest.(check bool) "admits eq" true (Dim.admits (Dim.static 4) 4);
  Alcotest.(check bool) "admits neq" false (Dim.admits (Dim.static 4) 5);
  Alcotest.(check bool) "any admits" true (Dim.admits Dim.Any 17);
  Alcotest.check_raises "negative" (Invalid_argument "Dim.static: negative extent")
    (fun () -> ignore (Dim.static (-1)))

let dim_opt = Alcotest.option (Alcotest.testable Dim.pp Dim.equal)

(* the paper's broadcast rules for Any (§4.1) *)
let test_dim_broadcast_paper_rules () =
  Alcotest.check dim_opt "Any x 1 = Any" (Some Dim.Any) (Dim.broadcast Dim.Any (Dim.static 1));
  Alcotest.check dim_opt "Any x d = d" (Some (Dim.static 7)) (Dim.broadcast Dim.Any (Dim.static 7));
  Alcotest.check dim_opt "Any x Any = Any" (Some Dim.Any) (Dim.broadcast Dim.Any Dim.Any);
  Alcotest.check dim_opt "d x d = d" (Some (Dim.static 3))
    (Dim.broadcast (Dim.static 3) (Dim.static 3));
  Alcotest.check dim_opt "mismatch" None (Dim.broadcast (Dim.static 3) (Dim.static 4));
  Alcotest.check dim_opt "same sym" (Some (Dim.Sym 5)) (Dim.broadcast (Dim.Sym 5) (Dim.Sym 5))

let test_dim_arith () =
  Alcotest.(check bool) "add static" true
    (Dim.equal (Dim.add (Dim.static 2) (Dim.static 3)) (Dim.static 5));
  Alcotest.(check bool) "add any" true (Dim.equal (Dim.add Dim.Any (Dim.static 3)) Dim.Any);
  Alcotest.(check bool) "mul zero" true
    (Dim.equal (Dim.mul (Dim.static 0) Dim.Any) (Dim.static 0))

(* ---------------------------- types ---------------------------- *)

let test_ty_equal_static () =
  let a = Ty.tensor [ Dim.static 2; Dim.Any ] in
  let b = Ty.tensor [ Dim.static 2; Dim.Any ] in
  Alcotest.check ty_eq "structural equal" a b;
  Alcotest.(check bool) "static check" false (Ty.is_static a);
  Alcotest.(check bool) "static check 2" true (Ty.is_static (Ty.tensor_of_shape [| 2; 3 |]))

let test_ty_static_shape () =
  Alcotest.(check (option (array int)))
    "extract" (Some [| 2; 3 |])
    (Ty.static_shape (Ty.tensor_of_shape [| 2; 3 |]));
  Alcotest.(check (option (array int)))
    "dynamic none" None
    (Ty.static_shape (Ty.tensor [ Dim.Any ]))

(* sub-shaping: more specific usable where less specific expected (§4.1) *)
let test_subtyping () =
  let specific = Ty.tensor [ Dim.static 4; Dim.static 8 ] in
  let loose = Ty.tensor [ Dim.Any; Dim.static 8 ] in
  Alcotest.(check bool) "specific <= loose" true (Ty.subtype specific loose);
  Alcotest.(check bool) "loose <= specific fails" false (Ty.subtype loose specific);
  Alcotest.(check bool) "reflexive" true (Ty.subtype loose loose);
  (* function subtyping is contravariant in arguments *)
  let f_specific = Ty.Func ([ loose ], specific) in
  let f_loose = Ty.Func ([ specific ], loose) in
  Alcotest.(check bool) "contravariance" true (Ty.subtype f_specific f_loose)

(* ---------------------------- attrs ---------------------------- *)

let test_attrs () =
  let a =
    Attrs.empty
    |> fun a -> Attrs.set a "axis" (Attrs.Int 1)
    |> fun a -> Attrs.set a "name" (Attrs.Str "x")
    |> fun a -> Attrs.set a "dims" (Attrs.Ints [ 1; 2 ])
  in
  Alcotest.(check (option int)) "int" (Some 1) (Attrs.find_int a "axis");
  Alcotest.(check (option string)) "str" (Some "x") (Attrs.find_str a "name");
  Alcotest.(check (option (list int))) "ints" (Some [ 1; 2 ]) (Attrs.find_ints a "dims");
  Alcotest.(check (option int)) "missing" None (Attrs.find_int a "nope");
  Alcotest.(check int) "default" 7 (Attrs.get_int ~default:7 a "nope");
  (* set overrides *)
  let a = Attrs.set a "axis" (Attrs.Int 2) in
  Alcotest.(check (option int)) "override" (Some 2) (Attrs.find_int a "axis")

(* ---------------------------- expressions ---------------------------- *)

let test_free_vars () =
  let x = Expr.fresh_var "x" and y = Expr.fresh_var "y" in
  let e = Expr.op_call "add" [ Expr.Var x; Expr.Var y ] in
  Alcotest.(check (list int)) "two free" [ x.Expr.vid; y.Expr.vid ]
    (List.map (fun (v : Expr.var) -> v.Expr.vid) (Expr.free_vars e));
  (* let-binding removes the bound var *)
  let e2 = Expr.Let (x, Expr.const_scalar 1.0, e) in
  Alcotest.(check (list int)) "one free" [ y.Expr.vid ]
    (List.map (fun (v : Expr.var) -> v.Expr.vid) (Expr.free_vars e2));
  (* fn params are bound *)
  let e3 = Expr.fn [ x; y ] e in
  Alcotest.(check int) "none free" 0 (List.length (Expr.free_vars e3))

let test_substitute () =
  let x = Expr.fresh_var "x" in
  let e = Expr.op_call "relu" [ Expr.Var x ] in
  let e' = Expr.substitute [ (x.Expr.vid, Expr.const_scalar 2.0) ] e in
  Alcotest.(check int) "no free vars after subst" 0 (List.length (Expr.free_vars e'))

let test_size_and_iter () =
  let x = Expr.fresh_var "x" in
  let e = Expr.op_call "add" [ Expr.Var x; Expr.Var x ] in
  Alcotest.(check int) "size" 4 (Expr.size e);
  let count = ref 0 in
  Expr.iter (fun _ -> incr count) e;
  Alcotest.(check int) "iter count" 4 !count

let test_map_bottom_up () =
  let x = Expr.fresh_var "x" in
  let e = Expr.op_call "relu" [ Expr.op_call "tanh" [ Expr.Var x ] ] in
  (* rewrite tanh -> sigmoid *)
  let e' =
    Expr.map_bottom_up
      (function
        | Expr.Call { callee = Expr.Op "tanh"; args; attrs } ->
            Expr.Call { callee = Expr.Op "sigmoid"; args; attrs }
        | e -> e)
      e
  in
  let found = ref false in
  Expr.iter (function Expr.Op "sigmoid" -> found := true | _ -> ()) e';
  Alcotest.(check bool) "rewritten" true !found

(* ---------------------------- ADTs ---------------------------- *)

let test_adt_tags () =
  let adt = Adt.tensor_list ~elem_ty:(Ty.tensor_of_shape [| 2 |]) in
  let nil = Adt.ctor_exn adt "Nil" and cons = Adt.ctor_exn adt "Cons" in
  Alcotest.(check int) "nil tag" 0 nil.Adt.tag;
  Alcotest.(check int) "cons tag" 1 cons.Adt.tag;
  Alcotest.(check int) "cons arity" 2 (List.length cons.Adt.arg_tys);
  Alcotest.(check bool) "by tag" true
    (match Adt.ctor_by_tag adt 1 with Some c -> Adt.equal_ctor c cons | None -> false);
  Alcotest.check_raises "missing" (Invalid_argument "Adt.ctor_exn: no constructor Foo in TensorList")
    (fun () -> ignore (Adt.ctor_exn adt "Foo"))

(* ---------------------------- modules ---------------------------- *)

let test_module () =
  let m = Irmod.create () in
  let x = Expr.fresh_var ~ty:(Ty.tensor_of_shape [| 2 |]) "x" in
  Irmod.add_func m "f" (Expr.fn_def [ x ] (Expr.Var x));
  Irmod.add_func m "main" (Expr.fn_def [] (Expr.const_scalar 0.0));
  Alcotest.(check (list string)) "order" [ "f"; "main" ]
    (List.map fst (Irmod.functions m));
  Alcotest.(check bool) "find" true (Irmod.find_func m "f" <> None);
  Alcotest.(check bool) "missing" true (Irmod.find_func m "g" = None);
  (* replacing keeps order *)
  Irmod.add_func m "f" (Expr.fn_def [] (Expr.const_scalar 1.0));
  Alcotest.(check (list string)) "order stable" [ "f"; "main" ]
    (List.map fst (Irmod.functions m))

let test_module_copy () =
  let m = Irmod.create () in
  let x = Expr.fresh_var ~ty:(Ty.tensor_of_shape [| 2 |]) "x" in
  let f = Expr.fn_def [ x ] (Expr.Var x) in
  Irmod.add_func m "f" f;
  let c = Irmod.copy m in
  Alcotest.(check bool) "bodies shared" true (Irmod.func_exn c "f" == f);
  (* replacing and adding functions in the copy leaves the original as it was *)
  Irmod.add_func c "f" (Expr.fn_def [] (Expr.const_scalar 1.0));
  Irmod.add_func c "g" (Expr.fn_def [] (Expr.const_scalar 2.0));
  Irmod.add_adt c (Adt.tensor_list ~elem_ty:(Ty.tensor_of_shape [| 2 |]));
  Alcotest.(check (list string)) "copy order" [ "f"; "g" ] (List.map fst (Irmod.functions c));
  Alcotest.(check (list string)) "original order" [ "f" ] (List.map fst (Irmod.functions m));
  Alcotest.(check bool) "original f kept" true (Irmod.func_exn m "f" == f);
  Alcotest.(check int) "original adts" 0 (List.length (Irmod.adts m))

(* ---------------------------- op registry ---------------------------- *)

let test_op_registry () =
  Alcotest.(check bool) "dense exists" true (Op.exists "dense");
  Alcotest.(check bool) "bogus missing" false (Op.exists "bogus_op");
  Alcotest.(check int) "dense arity" 2 (Op.get "dense").Op.arity;
  Alcotest.(check string) "dense pattern" "out_fusable"
    (Op.pattern_to_string (Op.get "dense").Op.pattern);
  Alcotest.(check string) "add pattern" "broadcast"
    (Op.pattern_to_string (Op.get "add").Op.pattern);
  Alcotest.(check string) "softmax opaque" "opaque"
    (Op.pattern_to_string (Op.get "softmax").Op.pattern);
  Alcotest.(check bool) "registry nonempty" true (List.length (Op.all ()) > 40)

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_pretty_printing_smoke () =
  let x = Expr.fresh_var ~ty:(Ty.tensor [ Dim.Any; Dim.static 3 ]) "x" in
  let e = Expr.Let (x, Expr.const_scalar 1.0, Expr.op_call "relu" [ Expr.Var x ]) in
  let s = Expr.to_string e in
  Alcotest.(check bool) "mentions relu" true (contains_substring ~needle:"relu" s);
  (* dynamic dims print as ? *)
  let ty_s = Ty.to_string (Ty.tensor [ Dim.Any; Dim.static 3 ]) in
  Alcotest.(check bool) "Any prints" true (contains_substring ~needle:"?" ty_s)

let () =
  ignore (Tensor.zeros [| 1 |]);
  Alcotest.run "ir"
    [
      ( "dim",
        [
          Alcotest.test_case "basics" `Quick test_dim_basic;
          Alcotest.test_case "broadcast rules (paper)" `Quick test_dim_broadcast_paper_rules;
          Alcotest.test_case "arith" `Quick test_dim_arith;
        ] );
      ( "ty",
        [
          Alcotest.test_case "equality/static" `Quick test_ty_equal_static;
          Alcotest.test_case "static shape extraction" `Quick test_ty_static_shape;
          Alcotest.test_case "sub-shaping" `Quick test_subtyping;
        ] );
      ("attrs", [ Alcotest.test_case "get/set/default" `Quick test_attrs ]);
      ( "expr",
        [
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "substitute" `Quick test_substitute;
          Alcotest.test_case "size/iter" `Quick test_size_and_iter;
          Alcotest.test_case "map bottom up" `Quick test_map_bottom_up;
          Alcotest.test_case "pretty print" `Quick test_pretty_printing_smoke;
        ] );
      ("adt", [ Alcotest.test_case "tags and lookup" `Quick test_adt_tags ]);
      ( "module",
        [
          Alcotest.test_case "functions" `Quick test_module;
          Alcotest.test_case "copy has own tables" `Quick test_module_copy;
        ] );
      ("ops", [ Alcotest.test_case "registry" `Quick test_op_registry ]);
    ]
