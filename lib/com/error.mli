(** The OSKit [error_t] code space.

    Every fallible COM method in the paper returns an [error_t]; here methods
    return [('a, Error.t) result].  The codes mirror the POSIX subset the
    OSKit interfaces use, plus the COM-specific [No_interface] returned by
    [query] when an object does not implement the requested interface. *)

type t =
  | No_interface  (** COM E_NOINTERFACE: object lacks the queried interface *)
  | Inval  (** invalid argument *)
  | Nodev  (** no such device *)
  | Noent  (** no such file or directory *)
  | Exist  (** object already exists *)
  | Nomem  (** out of memory *)
  | Io  (** device-level I/O failure *)
  | Nospc  (** no space left on device *)
  | Notdir  (** path component is not a directory *)
  | Isdir  (** operation not valid on a directory *)
  | Notempty  (** directory not empty *)
  | Acces  (** permission denied *)
  | Badf  (** bad file descriptor *)
  | Mfile  (** descriptor table full *)
  | Pipe  (** broken connection *)
  | Again  (** resource temporarily unavailable *)
  | Wouldblock  (** non-blocking operation would block *)
  | Notconn  (** socket not connected *)
  | Isconn  (** socket already connected *)
  | Connrefused  (** connection refused by peer *)
  | Connreset  (** connection reset by peer *)
  | Timedout  (** operation timed out *)
  | Addrinuse  (** address already in use *)
  | Addrnotavail  (** no free local port to assign *)
  | Hostunreach  (** no route to host *)
  | Msgsize  (** message too large *)
  | Notsup  (** operation not supported by this component *)
  | Rofs  (** read-only file system *)
  | Xdev  (** cross-device link *)
  | Nametoolong  (** path component too long *)
  | Fbig  (** file too large *)
  | Srch  (** no such process *)
  | Intr  (** interrupted operation *)
  | Busy  (** resource busy *)
  | Range  (** result out of range *)
  | Proto  (** protocol error *)
  | Unknown of string  (** anything a donor OS reports that has no code *)

val equal : t -> t -> bool

(** Short upper-case name, e.g. ["EINVAL"]. *)
val to_string : t -> string

(** One-line human description. *)
val message : t -> string

val pp : Format.formatter -> t -> unit

(** [errno e] is the conventional numeric errno value, used where legacy code
    (or the minimal C library) traffics in integers. *)
val errno : t -> int

(** Inverse of [errno] for the codes above; unknown numbers map to
    [Unknown]. *)
val of_errno : int -> t

exception Error of t

(** [fail e] raises [Error e]; glue code uses it at legacy boundaries where
    the donor code signals errors by exception-like control flow. *)
val fail : t -> 'a

(** [to_result f] runs [f], catching [Error] into [Result.Error]. *)
val to_result : (unit -> 'a) -> ('a, t) result

(** [bad_range buf ~pos ~len] is true when [pos, pos + len) is not inside
    [buf].  Every socket call that takes a caller's [~buf ~pos ~len]
    checks it first and returns [Inval] before any charge, dequeue or
    state change, so a bad range can neither raise inside a stack nor
    lose data. *)
val bad_range : bytes -> pos:int -> len:int -> bool
