type t = bool option ref

let create () : t = ref None

let query ?memo (io : Io_if.bufio) iid =
  let attempt =
    match memo with
    | Some { contents = Some false } -> Result.Error Error.No_interface
    | _ ->
        Cost.count_com_call ();
        Com.query io.Io_if.buf_unknown iid
  in
  (match memo with
  | Some ({ contents = None } as c) -> c := Some (Result.is_ok attempt)
  | _ -> ());
  if Result.is_ok attempt then ignore (io.Io_if.buf_unknown.Com.release ());
  attempt
