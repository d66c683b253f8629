(** The machine's hardware inventory.

    Probe routines need something to probe: example setups register the
    simulated controllers present on a machine here, and driver probe
    functions scan for models they recognise — the ISA/PCI walk of a real
    driver, reduced to its essence.  The inventory lives on the machine
    itself, so a fresh machine starts empty. *)

type hw =
  | Hw_nic of { model : string; nic : Nic.t }
  | Hw_disk of { model : string; disk : Disk.t }
  | Hw_serial of { model : string; serial : Serial.t }

val register_hw : Machine.t -> hw -> unit
val hardware : Machine.t -> hw list

(** Forget a machine's inventory. *)
val clear : Machine.t -> unit
