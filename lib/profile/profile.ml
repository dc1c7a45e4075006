type t = {
  direct : (int, int) Hashtbl.t;
  indirect : (int, (string, int) Hashtbl.t) Hashtbl.t;
  entries : (string, int) Hashtbl.t;
  mutable version : int;  (* bumped by every mutator below *)
}

let create () =
  {
    direct = Hashtbl.create 512;
    indirect = Hashtbl.create 256;
    entries = Hashtbl.create 512;
    version = 0;
  }

let version t = t.version

let bump t tbl key count =
  t.version <- t.version + 1;
  Hashtbl.replace tbl key (count + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let add_direct t ~origin ~count = bump t t.direct origin count

let add_indirect t ~origin ~target ~count =
  let vp =
    match Hashtbl.find_opt t.indirect origin with
    | Some vp -> vp
    | None ->
      let vp = Hashtbl.create 4 in
      Hashtbl.replace t.indirect origin vp;
      vp
  in
  bump t vp target count

let add_entry t ~func ~count = bump t t.entries func count
let direct_count t ~origin = Option.value ~default:0 (Hashtbl.find_opt t.direct origin)

let value_profile t ~origin =
  match Hashtbl.find_opt t.indirect origin with
  | None -> []
  | Some vp ->
    let items = Hashtbl.fold (fun target count acc -> (target, count) :: acc) vp [] in
    List.sort
      (fun (n1, c1) (n2, c2) -> if c1 <> c2 then compare c2 c1 else String.compare n1 n2)
      items

let site_weight t (s : Pibe_ir.Types.site) =
  let origin = s.Pibe_ir.Types.site_origin in
  match Hashtbl.find_opt t.direct origin with
  | Some c -> c
  | None -> List.fold_left (fun acc (_, c) -> acc + c) 0 (value_profile t ~origin)

let invocations t func = Option.value ~default:0 (Hashtbl.find_opt t.entries func)
let total_direct_weight t = Hashtbl.fold (fun _ c acc -> acc + c) t.direct 0

let total_indirect_weight t =
  Hashtbl.fold
    (fun _ vp acc -> Hashtbl.fold (fun _ c acc -> acc + c) vp acc)
    t.indirect 0

let profiled_indirect_origins t =
  List.sort compare (Hashtbl.fold (fun origin _ acc -> origin :: acc) t.indirect [])

let remove_indirect_target t ~origin ~target =
  match Hashtbl.find_opt t.indirect origin with
  | None -> ()
  | Some vp ->
    t.version <- t.version + 1;
    Hashtbl.remove vp target;
    if Hashtbl.length vp = 0 then Hashtbl.remove t.indirect origin

let copy t =
  let indirect = Hashtbl.create (max 16 (Hashtbl.length t.indirect)) in
  Hashtbl.iter (fun origin vp -> Hashtbl.replace indirect origin (Hashtbl.copy vp)) t.indirect;
  { direct = Hashtbl.copy t.direct; indirect; entries = Hashtbl.copy t.entries; version = 0 }

let merge a b =
  let t = create () in
  let copy_from src =
    Hashtbl.iter (fun origin c -> add_direct t ~origin ~count:c) src.direct;
    Hashtbl.iter
      (fun origin vp -> Hashtbl.iter (fun target c -> add_indirect t ~origin ~target ~count:c) vp)
      src.indirect;
    Hashtbl.iter (fun func c -> add_entry t ~func ~count:c) src.entries
  in
  copy_from a;
  copy_from b;
  t

(* Weighted merge accumulates in float per key and rounds once at the
   end (better than rounding each addend); keys whose weighted sum rounds
   to zero are dropped so decayed profiles stay sparse.  Per-key addition
   order follows the part list, so the result is deterministic. *)
let merge_weighted parts =
  let dir : (int, float) Hashtbl.t = Hashtbl.create 512 in
  let ind : (int * string, float) Hashtbl.t = Hashtbl.create 512 in
  let ent : (string, float) Hashtbl.t = Hashtbl.create 512 in
  let bumpf tbl key v =
    Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
  in
  List.iter
    (fun (w, src) ->
      if w < 0.0 then invalid_arg "Profile.merge_weighted: negative weight";
      Hashtbl.iter (fun origin c -> bumpf dir origin (w *. float_of_int c)) src.direct;
      Hashtbl.iter
        (fun origin vp ->
          Hashtbl.iter (fun target c -> bumpf ind (origin, target) (w *. float_of_int c)) vp)
        src.indirect;
      Hashtbl.iter (fun func c -> bumpf ent func (w *. float_of_int c)) src.entries)
    parts;
  let t = create () in
  let round v = int_of_float (Float.round v) in
  Hashtbl.iter
    (fun origin v ->
      let c = round v in
      if c > 0 then add_direct t ~origin ~count:c)
    dir;
  Hashtbl.iter
    (fun (origin, target) v ->
      let c = round v in
      if c > 0 then add_indirect t ~origin ~target ~count:c)
    ind;
  Hashtbl.iter
    (fun func v ->
      let c = round v in
      if c > 0 then add_entry t ~func ~count:c)
    ent;
  t

let scale t f = merge_weighted [ (f, t) ]

type match_stats = {
  direct_kept : int;
  direct_dropped : int;
  indirect_kept : int;
  indirect_dropped : int;
  entries_kept : int;
  entries_dropped : int;
  renamed_weight : int;
}

(* Staleness matching: keep only the counts whose identity still exists —
   with the same call kind — in the target program.  A site id that
   vanished and was later re-minted for a different-kind site would
   otherwise smuggle weight across kinds (direct counter read as an
   indirect origin or vice versa), so existence is checked per kind. *)
let match_to ?(renames = []) t prog =
  let open Pibe_ir in
  let direct_origins = Hashtbl.create 512 in
  let indirect_origins = Hashtbl.create 256 in
  let funcs = Hashtbl.create 512 in
  Program.iter_funcs prog (fun f ->
      Hashtbl.replace funcs f.Types.fname ();
      Func.iter_insts f (fun _ i ->
          match i with
          | Types.Call { site; _ } ->
            Hashtbl.replace direct_origins site.Types.site_origin ()
          | Types.Icall { site; _ } | Types.Asm_icall { site; _ } ->
            Hashtbl.replace indirect_origins site.Types.site_origin ()
          | Types.Assign _ | Types.Store _ | Types.Observe _ -> ()));
  let renamed_weight = ref 0 in
  let rename f count =
    match List.assoc_opt f renames with
    | Some f' ->
      renamed_weight := !renamed_weight + count;
      f'
    | None -> f
  in
  let out = create () in
  let dk = ref 0 and dd = ref 0 and ik = ref 0 and id_ = ref 0 in
  let ek = ref 0 and ed = ref 0 in
  Hashtbl.iter
    (fun origin count ->
      if Hashtbl.mem direct_origins origin then begin
        dk := !dk + count;
        add_direct out ~origin ~count
      end
      else dd := !dd + count)
    t.direct;
  Hashtbl.iter
    (fun origin vp ->
      let live = Hashtbl.mem indirect_origins origin in
      Hashtbl.iter
        (fun target count ->
          let target = rename target count in
          if live && Hashtbl.mem funcs target then begin
            ik := !ik + count;
            add_indirect out ~origin ~target ~count
          end
          else id_ := !id_ + count)
        vp)
    t.indirect;
  Hashtbl.iter
    (fun func count ->
      let func = rename func count in
      if Hashtbl.mem funcs func then begin
        ek := !ek + count;
        add_entry out ~func ~count
      end
      else ed := !ed + count)
    t.entries;
  ( out,
    {
      direct_kept = !dk;
      direct_dropped = !dd;
      indirect_kept = !ik;
      indirect_dropped = !id_;
      entries_kept = !ek;
      entries_dropped = !ed;
      renamed_weight = !renamed_weight;
    } )

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "profile {\n";
  let entries = Hashtbl.fold (fun f c acc -> (f, c) :: acc) t.entries [] in
  List.iter
    (fun (f, c) -> Buffer.add_string buf (Printf.sprintf "  entry @%s = %d\n" f c))
    (List.sort compare entries);
  let directs = Hashtbl.fold (fun o c acc -> (o, c) :: acc) t.direct [] in
  List.iter
    (fun (o, c) -> Buffer.add_string buf (Printf.sprintf "  direct %d = %d\n" o c))
    (List.sort compare directs);
  List.iter
    (fun origin ->
      List.iter
        (fun (target, c) ->
          Buffer.add_string buf (Printf.sprintf "  vp %d @%s = %d\n" origin target c))
        (value_profile t ~origin))
    (profiled_indirect_origins t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* One reader error form for every text input: the IR parser's located
   [Parse_error], with 1-based line numbers. *)
let of_string text =
  let t = create () in
  (* running per-kind totals *)
  let entries = ref 0 and directs = ref 0 and vps = ref 0 in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let fail fmt =
        Printf.ksprintf
          (fun message -> raise (Pibe_ir.Parser.Parse_error { line = lineno; message }))
          fmt
      in
      let line = String.trim raw in
      let malformed () = fail "malformed line: %s" line in
      let parse_int tok = match int_of_string_opt tok with Some v -> v | None -> malformed () in
      let parse_name tok =
        if String.length tok >= 2 && tok.[0] = '@' then String.sub tok 1 (String.length tok - 1)
        else malformed ()
      in
      (* a count is non-negative and keeps its kind's total within [max_int],
         so every weight sum a consumer takes fits *)
      let parse_count total tok =
        let c = parse_int tok in
        if c < 0 then fail "negative count %d" c;
        if c > max_int - !total then fail "count %d overflows the total of its kind" c;
        total := !total + c;
        c
      in
      if line = "" || line = "profile {" || line = "}" then ()
      else
        match String.split_on_char ' ' line with
        | [ "entry"; name; "="; c ] ->
          let func = parse_name name in
          add_entry t ~func ~count:(parse_count entries c)
        | [ "direct"; o; "="; c ] ->
          let origin = parse_int o in
          add_direct t ~origin ~count:(parse_count directs c)
        | [ "vp"; o; name; "="; c ] ->
          let origin = parse_int o in
          let target = parse_name name in
          add_indirect t ~origin ~target ~count:(parse_count vps c)
        | _ -> malformed ())
    (String.split_on_char '\n' text);
  t
