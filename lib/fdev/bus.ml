type hw =
  | Hw_nic of { model : string; nic : Nic.t }
  | Hw_disk of { model : string; disk : Disk.t }
  | Hw_serial of { model : string; serial : Serial.t }

let inventory : hw list ref Machine.key = Machine.key (fun _ -> ref [])

let register_hw machine hw =
  let r = Machine.get machine inventory in
  r := !r @ [ hw ]

let hardware machine = !(Machine.get machine inventory)
let clear machine = Machine.get machine inventory := []
