(* Table 3: the component source-size inventory, generated from this
   repository with the paper's counting rules: "filters out comments, blank
   lines, preprocessor directives, and punctuation-only lines".

   Classification follows the paper's columns: interface (.mli) vs
   implementation (.ml), and within implementations, native/assimilated vs
   encapsulated code — encapsulated files are those whose header carries
   the ENCAPSULATED LEGACY CODE marker, mirroring the donor-tree
   separation of Section 4.7.1. *)

type row = {
  component : string;
  description : string;
  interface : int;
  native : int;
  encapsulated : int;
}

(* Strip OCaml comments (nested) and count the lines that survive the
   paper's filter. *)
let filtered_count source =
  let n = String.length source in
  let out = Buffer.create n in
  let rec strip i depth =
    if i >= n then ()
    else if i + 1 < n && source.[i] = '(' && source.[i + 1] = '*' then strip (i + 2) (depth + 1)
    else if i + 1 < n && source.[i] = '*' && source.[i + 1] = ')' && depth > 0 then
      strip (i + 2) (depth - 1)
    else begin
      if depth = 0 || source.[i] = '\n' then Buffer.add_char out source.[i];
      strip (i + 1) depth
    end
  in
  strip 0 0;
  let is_punct_only line =
    String.for_all
      (fun c ->
        match c with
        | ' ' | '\t' | '{' | '}' | '(' | ')' | '[' | ']' | ';' | ',' | '|' -> true
        | _ -> false)
      line
  in
  let meaningful line =
    let l = String.trim line in
    l <> "" && not (is_punct_only l)
  in
  List.length (List.filter meaningful (String.split_on_char '\n' (Buffer.contents out)))

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let is_encapsulated source =
  String.length source > 0
  &&
  let probe = String.sub source 0 (min 400 (String.length source)) in
  let needle = "ENCAPSULATED LEGACY CODE" in
  let n = String.length needle and h = String.length probe in
  let rec go i = i + n <= h && (String.sub probe i n = needle || go (i + 1)) in
  go 0

let descriptions =
  [ "com", "COM interfaces & support";
    "machine", "Simulated testbed hardware (multi-CPU)";
    "boot", "Bootstrap support";
    "kern", "Kernel support";
    "smp", "Multiprocessor support (netisr, RSS)";
    "asyncio", "Readiness I/O & reactor";
    "event", "Event core (kqueue, timing wheel)";
    "httpd", "HTTP server (1.0/1.1 engine, sendfile)";
    "malloc", "Size-class allocator";
    "lmm", "List Memory Manager";
    "amm", "Address Map Manager";
    "libc", "Minimal C library";
    "memdebug", "Malloc debugging";
    "diskpart", "Disk partitioning";
    "fsread", "File system reading";
    "exec", "Program loading";
    "fdev", "Device driver support";
    "linux_dev", "Linux drivers & support";
    "freebsd_dev", "FreeBSD drivers & support";
    "freebsd_net", "FreeBSD network stack";
    "linux_net", "Linux network stack";
    "inet", "Shared wire codec, ARP & policy";
    "linux_fs", "Linux FAT file system";
    "netbsd_fs", "NetBSD file system";
    "ttcp", "ttcp/rtcp workloads & endpoints";
    "vm", "Bytecode VM (Kaffe stand-in)";
    "core", "Assembly recipes" ]

let component_rows ~lib_dir =
  let components = List.sort compare (Array.to_list (Sys.readdir lib_dir)) in
  List.filter_map
    (fun comp ->
      let dir = Filename.concat lib_dir comp in
      if not (Sys.is_directory dir) then None
      else begin
        let files = Array.to_list (Sys.readdir dir) in
        let row =
          List.fold_left
            (fun row file ->
              let path = Filename.concat dir file in
              if Filename.check_suffix file ".mli" then
                { row with interface = row.interface + filtered_count (read_file path) }
              else if Filename.check_suffix file ".ml" then begin
                let src = read_file path in
                let count = filtered_count src in
                if is_encapsulated src then
                  { row with encapsulated = row.encapsulated + count }
                else { row with native = row.native + count }
              end
              else row)
            { component = comp;
              description =
                Option.value (List.assoc_opt comp descriptions) ~default:"";
              interface = 0;
              native = 0;
              encapsulated = 0 }
            files
        in
        Some row
      end)
    components
