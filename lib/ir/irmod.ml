(** An IR module: named global functions plus ADT definitions.

    The unit of compilation — Nimble compiles one module into one VM
    executable. "main" is the conventional entry point. *)

type t = {
  funcs : (string, Expr.fn) Hashtbl.t;
  adts : (string, Adt.def) Hashtbl.t;
  mutable func_order : string list;  (** insertion order, for stable output *)
}

let create () = { funcs = Hashtbl.create 8; adts = Hashtbl.create 4; func_order = [] }

(** A module with its own function and ADT tables over the same function
    bodies, so passes that replace or add functions leave [t]'s tables as
    they were. Variable records stay shared, annotations included. *)
let copy t = { funcs = Hashtbl.copy t.funcs; adts = Hashtbl.copy t.adts; func_order = t.func_order }

let add_func t name fn =
  if not (Hashtbl.mem t.funcs name) then t.func_order <- t.func_order @ [ name ];
  Hashtbl.replace t.funcs name fn

let find_func t name = Hashtbl.find_opt t.funcs name

let func_exn t name =
  match find_func t name with
  | Some f -> f
  | None -> Fmt.invalid_arg "Irmod.func_exn: no function %s" name

let add_adt t (def : Adt.def) = Hashtbl.replace t.adts def.name def

let find_adt t name = Hashtbl.find_opt t.adts name

let adt_exn t name =
  match find_adt t name with
  | Some d -> d
  | None -> Fmt.invalid_arg "Irmod.adt_exn: no ADT %s" name

let functions t = List.map (fun name -> (name, Hashtbl.find t.funcs name)) t.func_order

let adts t = Hashtbl.fold (fun _ d acc -> d :: acc) t.adts []

(** Build a module whose "main" is a single function. *)
let of_main ?(adts = []) fn =
  let t = create () in
  List.iter (add_adt t) adts;
  add_func t "main" fn;
  t

(** Map every function body (e.g. to run a pass module-wide). *)
let map_funcs t f =
  List.iter
    (fun (name, fn) -> Hashtbl.replace t.funcs name (f name fn))
    (functions t)

let pp ppf t =
  List.iter (fun d -> Fmt.pf ppf "%a@." Adt.pp d) (adts t);
  List.iter
    (fun (name, fn) -> Fmt.pf ppf "def @@%s %a@." name Expr.pp (Expr.Fn fn))
    (functions t)

let to_string t = Fmt.str "%a" pp t
