type value = I of int | F of float | S of string | B of bool

type attrs = (string * value) list

type kind = Span | Event

type record = {
  kind : kind;
  name : string;
  t : float;
  dur : float;
  wall_ms : float;
  attrs : attrs;
}

type t = {
  mutable now : unit -> float;
  wall : bool;
  emit_rec : record -> unit;
  close_fn : unit -> unit;
  mutable closed : bool;
}

let null () =
  { now = (fun () -> 0.);
    wall = false;
    emit_rec = ignore;
    close_fn = ignore;
    closed = false }

let memory ?(wall = false) () =
  let q = Queue.create () in
  let emit_rec r = Queue.push r q in
  ( { now = (fun () -> 0.); wall; emit_rec; close_fn = ignore; closed = false },
    fun () -> List.of_seq (Queue.to_seq q) )

(* Floats are printed with fixed precision: simulated times are sums of
   configured charges, so %.6f is exact enough to be stable, and fixed
   width keeps traces byte-comparable. *)
let buf_float b f = Buffer.add_string b (Printf.sprintf "%.6f" f)

let buf_value b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f -> buf_float b f
  | S s -> Buffer.add_string b (Rb_util.Json.escape s)
  | B true -> Buffer.add_string b "true"
  | B false -> Buffer.add_string b "false"

let buf_jsonl ?(wall = false) b r =
  Buffer.add_string b
    (match r.kind with Span -> {|{"k":"span","name":|} | Event -> {|{"k":"event","name":|});
  Buffer.add_string b (Rb_util.Json.escape r.name);
  Buffer.add_string b {|,"t":|};
  buf_float b r.t;
  if r.kind = Span then begin
    Buffer.add_string b {|,"dur":|};
    buf_float b r.dur
  end;
  if wall then begin
    Buffer.add_string b {|,"wall_ms":|};
    Buffer.add_string b (Printf.sprintf "%.3f" r.wall_ms)
  end;
  if r.attrs <> [] then begin
    Buffer.add_string b {|,"attrs":{|};
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Rb_util.Json.escape k);
        Buffer.add_char b ':';
        buf_value b v)
      r.attrs;
    Buffer.add_char b '}'
  end;
  Buffer.add_char b '}'

let to_jsonl ?wall r =
  let b = Buffer.create 128 in
  buf_jsonl ?wall b r;
  Buffer.contents b

let of_jsonl line =
  let open Rb_util.Json in
  match parse line with
  | Error e -> Error e
  | Ok j -> (
    let kind =
      match member "k" j with
      | Some (Str "span") -> Some Span
      | Some (Str "event") -> Some Event
      | _ -> None
    in
    match (kind, member "name" j, member "t" j) with
    | Some kind, Some (Str name), Some (Num t) ->
      let fnum key d =
        match member key j with Some (Num f) -> f | _ -> d
      in
      let attrs =
        match member "attrs" j with
        | Some (Obj kvs) ->
          List.map
            (fun (k, v) ->
              ( k,
                match v with
                | Num n when Float.is_integer n && Float.abs n < 1e15 ->
                  I (int_of_float n)
                | Num n -> F n
                | Str s -> S s
                | Bool b -> B b
                | other -> S (to_string other) ))
            kvs
        | _ -> []
      in
      Ok
        { kind; name; t; dur = fnum "dur" 0.; wall_ms = fnum "wall_ms" 0.;
          attrs }
    | _ -> Error "trace record missing k/name/t")

let file ?(wall = false) path =
  let b = Buffer.create 4096 in
  let emit_rec r =
    buf_jsonl ~wall b r;
    Buffer.add_char b '\n'
  in
  let close_fn () =
    Rb_util.Fsfile.write_atomic path (Buffer.contents b)
  in
  { now = (fun () -> 0.); wall; emit_rec; close_fn; closed = false }

let tee a b =
  { now = (fun () -> 0.);
    wall = a.wall || b.wall;
    emit_rec =
      (fun r ->
        a.emit_rec r;
        b.emit_rec r);
    close_fn =
      (fun () ->
        a.close_fn ();
        b.close_fn ());
    closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.close_fn ()
  end

let wall_enabled t = t.wall

let set_time_source t now = t.now <- now

let emit t r = t.emit_rec r

let event t ?(attrs = []) name =
  emit t { kind = Event; name; t = t.now (); dur = 0.; wall_ms = 0.; attrs }

let span tr ?attrs ?post name f =
  let t0 = tr.now () in
  let w0 = if tr.wall then Unix.gettimeofday () else 0. in
  let finish result_attrs raised =
    let dur = tr.now () -. t0 in
    let wall_ms = if tr.wall then (Unix.gettimeofday () -. w0) *. 1000. else 0. in
    let base = match attrs with Some g -> g () | None -> [] in
    let attrs =
      base @ result_attrs @ (if raised then [ ("raised", B true) ] else [])
    in
    tr.emit_rec { kind = Span; name; t = t0; dur; wall_ms; attrs }
  in
  match f () with
  | v ->
    finish (match post with Some p -> p v | None -> []) false;
    v
  | exception e ->
    finish [] true;
    raise e

(* The ambient sink is domain-local so worker domains trace into their own
   per-job buffers with no synchronization; the cell is an option ref so
   installation/restoration is two writes. *)
let ambient_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let ambient () = !(Domain.DLS.get ambient_key)

let with_ambient tr f =
  let cell = Domain.DLS.get ambient_key in
  let prev = !cell in
  cell := Some tr;
  Fun.protect ~finally:(fun () -> cell := prev) f

let without_ambient f =
  let cell = Domain.DLS.get ambient_key in
  let prev = !cell in
  cell := None;
  Fun.protect ~finally:(fun () -> cell := prev) f

let set_ambient_time_source now =
  match ambient () with None -> () | Some tr -> set_time_source tr now

let in_span ?attrs ?post name f =
  match ambient () with
  | None -> f ()
  | Some tr -> span tr ?attrs ?post name f

let note name attrs =
  match ambient () with
  | None -> ()
  | Some tr -> event tr ~attrs:(attrs ()) name
