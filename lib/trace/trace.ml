(* Process-global structured event collector.  See trace.mli for the
   contract; the two properties everything below serves are (1) the
   disabled path is one atomic load, and (2) event content is
   deterministic — only timestamps, domain ids and the "sched" category
   depend on scheduling, and `canonical` strips exactly those. *)

type value = Int of int | Float of float | Str of string
type phase = Begin | End | Instant | Counter

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts_ns : int64;
  dom : int;
  seq : int;
  args : (string * value) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let lock = Mutex.create ()
let buf : event list ref = ref []
let seq_counter = Atomic.make 0

let emit ph ?(cat = "") ?(args = []) name =
  if Atomic.get enabled_flag then begin
    let ev =
      {
        ph;
        name;
        cat;
        ts_ns = Monotonic_clock.now ();
        dom = (Domain.self () :> int);
        seq = Atomic.fetch_and_add seq_counter 1;
        args;
      }
    in
    Mutex.lock lock;
    buf := ev :: !buf;
    Mutex.unlock lock
  end

let clear () =
  Mutex.lock lock;
  buf := [];
  Atomic.set seq_counter 0;
  Mutex.unlock lock

let start () =
  clear ();
  Atomic.set enabled_flag true

let snapshot () =
  Mutex.lock lock;
  let evs = !buf in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.seq b.seq) evs

let stop () =
  Atomic.set enabled_flag false;
  snapshot ()

let events () = snapshot ()

let span ?cat ?args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    emit Begin ?cat ?args name;
    match f () with
    | v ->
      emit End ?cat name;
      v
    | exception e ->
      emit End ?cat ~args:[ ("exn", Str (Printexc.to_string e)) ] name;
      raise e
  end

let counter ?cat name args = emit Counter ?cat ~args name
let gauge ?cat name v = counter ?cat name [ ("value", Float v) ]
let instant ?cat ?args name = emit Instant ?cat ?args name

(* ----------------------------- analysis ----------------------------- *)

let check_balanced evs =
  let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks dom s;
      s
  in
  let err = ref None in
  List.iter
    (fun e ->
      if !err = None then
        match e.ph with
        | Begin -> (
          let s = stack e.dom in
          s := e.name :: !s)
        | End -> (
          let s = stack e.dom in
          match !s with
          | top :: rest when String.equal top e.name -> s := rest
          | top :: _ ->
            err :=
              Some
                (Printf.sprintf "domain %d: end %S closes open span %S" e.dom e.name top)
          | [] -> err := Some (Printf.sprintf "domain %d: end %S with no open span" e.dom e.name))
        | Instant | Counter -> ())
    evs;
  match !err with
  | Some m -> Error m
  | None ->
    Hashtbl.fold
      (fun dom s acc ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
          match !s with
          | [] -> Ok ()
          | top :: _ -> Error (Printf.sprintf "domain %d: span %S never closed" dom top)))
      stacks (Ok ())

let numeric = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Str _ -> None

let counter_totals evs =
  let totals : (string * string * string, float ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.ph = Counter then
        List.iter
          (fun (k, v) ->
            match numeric v with
            | None -> ()
            | Some f -> (
              let key = (e.cat, e.name, k) in
              match Hashtbl.find_opt totals key with
              | Some r -> r := !r +. f
              | None -> Hashtbl.add totals key (ref f)))
          e.args)
    evs;
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Str s -> s

let phase_to_string = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "I"
  | Counter -> "C"

let args_to_string args =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ value_to_string v) args)

let canonical evs =
  evs
  |> List.filter (fun e -> not (String.equal e.cat "sched"))
  |> List.map (fun e ->
         Printf.sprintf "%s|%s|%s|%s" (phase_to_string e.ph) e.cat e.name
           (args_to_string e.args))
  |> List.sort String.compare

(* ------------------------------ sinks ------------------------------ *)

type format = Text | Csv | Chrome

let format_of_path path =
  if Filename.check_suffix path ".json" then Chrome
  else if Filename.check_suffix path ".csv" then Csv
  else Text

let format_to_string = function Text -> "text" | Csv -> "csv" | Chrome -> "chrome"

let base_ts evs =
  match evs with
  | [] -> 0L
  | e :: rest -> List.fold_left (fun acc x -> min acc x.ts_ns) e.ts_ns rest

let us_since ~base ts = Int64.to_float (Int64.sub ts base) /. 1e3

let to_text evs =
  let base = base_ts evs in
  let b = Buffer.create 4096 in
  (* per-domain stack of (name, begin ts) for indentation + durations *)
  let stacks : (int, (string * int64) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks dom s;
      s
  in
  List.iter
    (fun e ->
      let s = stack e.dom in
      let depth = List.length !s in
      let line depth body =
        Buffer.add_string b
          (Printf.sprintf "[d%d %10.1fus] %s%s\n" e.dom (us_since ~base e.ts_ns)
             (String.make (2 * depth) ' ')
             body)
      in
      let args = if e.args = [] then "" else "  (" ^ args_to_string e.args ^ ")" in
      match e.ph with
      | Begin ->
        line depth (Printf.sprintf "+ %s%s" e.name args);
        s := (e.name, e.ts_ns) :: !s
      | End -> (
        match !s with
        | (n, t_begin) :: rest when String.equal n e.name ->
          s := rest;
          line (depth - 1)
            (Printf.sprintf "- %s  %.3fms%s" e.name
               (Int64.to_float (Int64.sub e.ts_ns t_begin) /. 1e6)
               args)
        | _ -> line depth (Printf.sprintf "- %s (unbalanced)%s" e.name args))
      | Instant -> line depth (Printf.sprintf "! %s%s" e.name args)
      | Counter -> line depth (Printf.sprintf "# %s%s" e.name args))
    evs;
  Buffer.contents b

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv evs =
  let base = base_ts evs in
  let b = Buffer.create 4096 in
  Buffer.add_string b "seq,dom,ph,cat,name,t_us,args\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%s,%s,%s,%.3f,%s\n" e.seq e.dom (phase_to_string e.ph)
           (csv_quote e.cat) (csv_quote e.name) (us_since ~base e.ts_ns)
           (csv_quote (args_to_string e.args))))
    evs;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_value = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.6g" f
  | Str s -> "\"" ^ json_escape s ^ "\""

let json_args args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) (json_value v)) args)
  ^ "}"

let to_chrome evs =
  let base = base_ts evs in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun e ->
      let common =
        Printf.sprintf "\"name\":\"%s\",\"cat\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
          (json_escape e.name)
          (json_escape (if e.cat = "" then "pibe" else e.cat))
          (us_since ~base e.ts_ns) e.dom
      in
      let entry =
        match e.ph with
        | Begin -> Some (Printf.sprintf "{%s,\"ph\":\"B\",\"args\":%s}" common (json_args e.args))
        | End -> Some (Printf.sprintf "{%s,\"ph\":\"E\",\"args\":%s}" common (json_args e.args))
        | Instant ->
          Some (Printf.sprintf "{%s,\"ph\":\"i\",\"s\":\"t\",\"args\":%s}" common (json_args e.args))
        | Counter -> (
          (* Chrome counter tracks must be numeric *)
          match List.filter (fun (_, v) -> numeric v <> None) e.args with
          | [] -> None
          | nargs -> Some (Printf.sprintf "{%s,\"ph\":\"C\",\"args\":%s}" common (json_args nargs)))
      in
      match entry with
      | None -> ()
      | Some s ->
        if !first then first := false else Buffer.add_char b ',';
        Buffer.add_string b s)
    evs;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let render = function Text -> to_text | Csv -> to_csv | Chrome -> to_chrome

let write_file ~path fmt evs =
  let oc = open_out path in
  output_string oc (render fmt evs);
  close_out oc
