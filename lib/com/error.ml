type t =
  | No_interface
  | Inval
  | Nodev
  | Noent
  | Exist
  | Nomem
  | Io
  | Nospc
  | Notdir
  | Isdir
  | Notempty
  | Acces
  | Badf
  | Mfile
  | Pipe
  | Again
  | Wouldblock
  | Notconn
  | Isconn
  | Connrefused
  | Connreset
  | Timedout
  | Addrinuse
  | Addrnotavail
  | Hostunreach
  | Msgsize
  | Notsup
  | Rofs
  | Xdev
  | Nametoolong
  | Fbig
  | Srch
  | Intr
  | Busy
  | Range
  | Proto
  | Unknown of string

let equal a b =
  match a, b with
  | Unknown x, Unknown y -> String.equal x y
  | a, b -> a = b

let table =
  [ No_interface, "E_NOINTERFACE", 1000, "no such interface";
    Inval, "EINVAL", 22, "invalid argument";
    Nodev, "ENODEV", 19, "no such device";
    Noent, "ENOENT", 2, "no such file or directory";
    Exist, "EEXIST", 17, "file exists";
    Nomem, "ENOMEM", 12, "out of memory";
    Io, "EIO", 5, "input/output error";
    Nospc, "ENOSPC", 28, "no space left on device";
    Notdir, "ENOTDIR", 20, "not a directory";
    Isdir, "EISDIR", 21, "is a directory";
    Notempty, "ENOTEMPTY", 39, "directory not empty";
    Acces, "EACCES", 13, "permission denied";
    Badf, "EBADF", 9, "bad file descriptor";
    Mfile, "EMFILE", 24, "too many open files";
    Pipe, "EPIPE", 32, "broken pipe";
    Again, "EAGAIN", 11, "resource temporarily unavailable";
    Wouldblock, "EWOULDBLOCK", 35, "operation would block";
    Notconn, "ENOTCONN", 107, "socket is not connected";
    Isconn, "EISCONN", 106, "socket is already connected";
    Connrefused, "ECONNREFUSED", 111, "connection refused";
    Connreset, "ECONNRESET", 104, "connection reset by peer";
    Timedout, "ETIMEDOUT", 110, "operation timed out";
    Addrinuse, "EADDRINUSE", 98, "address already in use";
    Addrnotavail, "EADDRNOTAVAIL", 99, "cannot assign requested address";
    Hostunreach, "EHOSTUNREACH", 113, "no route to host";
    Msgsize, "EMSGSIZE", 90, "message too long";
    Notsup, "ENOTSUP", 95, "operation not supported";
    Rofs, "EROFS", 30, "read-only file system";
    Xdev, "EXDEV", 18, "cross-device link";
    Nametoolong, "ENAMETOOLONG", 36, "file name too long";
    Fbig, "EFBIG", 27, "file too large";
    Srch, "ESRCH", 3, "no such process";
    Intr, "EINTR", 4, "interrupted system call";
    Busy, "EBUSY", 16, "device or resource busy";
    Range, "ERANGE", 34, "result out of range";
    Proto, "EPROTO", 71, "protocol error" ]

let find_row e = List.find_opt (fun (code, _, _, _) -> code = e) table

let to_string = function
  | Unknown s -> "EUNKNOWN(" ^ s ^ ")"
  | e -> ( match find_row e with Some (_, name, _, _) -> name | None -> "E?")

let message = function
  | Unknown s -> s
  | e -> ( match find_row e with Some (_, _, _, msg) -> msg | None -> "unknown error")

let pp fmt e = Format.pp_print_string fmt (to_string e)

let errno = function
  | Unknown _ -> 5
  | e -> ( match find_row e with Some (_, _, n, _) -> n | None -> 5)

let of_errno n =
  match List.find_opt (fun (_, _, m, _) -> m = n) table with
  | Some (code, _, _, _) -> code
  | None -> Unknown (Printf.sprintf "errno %d" n)

exception Error of t

let fail e = raise (Error e)
let to_result f = try Ok (f ()) with Error e -> Result.Error e

let bad_range buf ~pos ~len = pos < 0 || len < 0 || pos > Bytes.length buf - len
