(** GLUE — exports the encapsulated Linux drivers as OSKit COM components.

    The thin layer of Section 4.7: translates the OSKit's public interfaces
    ([etherdev]/[netio]/[blkio]) into the imported code's internal ones, and
    the imported code's demands for low-level services into osenv calls.
    Packet buffers cross this boundary by the skbuff↔bufio rules of
    Section 4.7.3:

    - outbound sk_buffs are exported as [bufio] objects directly (one extra
      word, no copy);
    - inbound [bufio]s that are secretly our own sk_buffs are unwrapped by a
      private interface query (the "function table pointer check");
    - foreign [bufio]s that [map] (contiguous data) get a {e fake} sk_buff
      aliasing their bytes — still no copy;
    - anything else is read into a fresh sk_buff — the copy the Table 1
      send path pays when FreeBSD mbuf chains arrive here.

    Every crossing charges {!Cost.charge_glue_crossing}. *)

(** The paper's [fdev_linux_init_ethernet]: register the Linux Ethernet
    driver set with the device framework.  "Causing all supported drivers
    to be linked into the resulting application." *)
val init_ethernet : unit -> unit

(** Likewise for the block (IDE/SCSI) driver set. *)
val init_ide : unit -> unit

(** [bufio_of_skb skb] — export an sk_buff (receive path; no copy). *)
val bufio_of_skb : Skbuff.sk_buff -> Io_if.bufio

(** [skb_of_bufio ?cache io] — import a bufio for transmission per the
    rules above.  Returns the sk_buff and whether a copy was required.

    With {!Cost.config}[.sg_tx] set, a foreign bufio that exposes
    [buf_map_v] crosses as a {e nonlinear} sk_buff referencing the
    producer's fragments in place — no flatten copy; the driver hands the
    iovec to the card's scatter-gather DMA.

    [cache] memoises the private-interface recognition verdict for one
    producer binding: pass the same ref for every frame of a binding and
    only the first pays the COM dispatch on foreign producers
    ({!fresh_recognition}). *)
val skb_of_bufio : ?cache:bool option ref -> Io_if.bufio -> Skbuff.sk_buff * bool

(** A per-binding memo for [skb_of_bufio]'s recognition query. *)
val fresh_recognition : unit -> bool option ref

(** Direct (non-COM) access to the probed legacy devices, for the Linux
    inet baseline which links against this driver code natively. *)
val native_devices : Osenv.t -> Linux_eth_drv.device list
