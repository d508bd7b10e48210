(* Crash-safe persistence: atomic file writes and a checksummed,
   line-oriented experiment journal.

   [write_atomic] writes to a temporary file in the *same directory* as
   the target (rename(2) is only atomic within a filesystem), fsyncs it,
   and renames it over the target: a reader never observes a truncated or
   half-written file, and a crash mid-write leaves the previous contents
   intact.

   The journal records completed units of a long run ([bench json]
   rows) so a restart resumes instead of recomputing.  Each entry
   is one line — [v1 TAB id TAB md5(payload) TAB escaped-payload] — and
   loading drops any line whose checksum does not match, so a crash that
   truncates the final line costs exactly that entry, never the file. *)

let version_tag = "v1"

let write_atomic path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () -> if not !ok then try Sys.remove tmp with _ -> ())
    (fun () ->
      let fd = Unix.openfile tmp [ O_WRONLY; O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let n = String.length contents in
          let written = Unix.write_substring fd contents 0 n in
          if written <> n then failwith "Checkpoint.write_atomic: short write";
          Unix.fsync fd);
      Sys.rename tmp path;
      ok := true)

module Journal = struct
  type t = { path : string; mutable entries : (string * string) list }
  (* [entries] newest-last, one per id (later wins). *)

  (* Payloads may contain tabs/newlines; escape to keep one entry = one
     line. *)
  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\\' -> Buffer.add_string b "\\\\"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let unescape s =
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      (if s.[!i] = '\\' && !i + 1 < n then begin
         (match s.[!i + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | c -> Buffer.add_char b c);
         i := !i + 2
       end
       else begin
         Buffer.add_char b s.[!i];
         incr i
       end)
    done;
    Buffer.contents b

  (* The id is escaped like the payload: ids are caller-chosen strings
     and must not be able to break the tab framing. *)
  let line id payload =
    let esc = escape payload in
    Printf.sprintf "%s\t%s\t%s\t%s" version_tag (escape id)
      (Digest.to_hex (Digest.string esc))
      esc

  let parse_line l =
    match String.split_on_char '\t' l with
    | [ tag; id; sum; esc ]
      when tag = version_tag && Digest.to_hex (Digest.string esc) = sum ->
        Some (unescape id, unescape esc)
    | _ -> None (* truncated, corrupted or foreign line: skip it *)

  let load path =
    let entries =
      if not (Sys.file_exists path) then []
      else begin
        let ic = open_in_bin path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        close_in ic;
        List.rev !lines |> List.filter_map parse_line
      end
    in
    (* Deduplicate by id, keeping the newest entry. *)
    let seen = Hashtbl.create 16 in
    let entries =
      List.rev entries
      |> List.filter (fun (id, _) ->
             if Hashtbl.mem seen id then false
             else begin
               Hashtbl.add seen id ();
               true
             end)
      |> List.rev
    in
    { path; entries }

  let find t id = List.assoc_opt id t.entries

  let entries t = t.entries

  (* The journal is small (one line per experiment), so each record
     rewrites the whole file atomically: the journal itself can never be
     left truncated mid-entry by a crash. *)
  let record t id payload =
    t.entries <- List.filter (fun (i, _) -> i <> id) t.entries @ [ (id, payload) ];
    write_atomic t.path
      (String.concat ""
         (List.map (fun (i, p) -> line i p ^ "\n") t.entries))

  let clear t =
    t.entries <- [];
    if Sys.file_exists t.path then try Sys.remove t.path with _ -> ()
end
