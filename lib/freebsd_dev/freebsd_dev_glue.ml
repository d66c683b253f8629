(* GLUE — exports the encapsulated FreeBSD character drivers as OSKit
   chario COM objects and registers them with the device framework.  These
   drivers coexist with the Linux driver set in one kernel — the paper's
   point that "the FreeBSD drivers work alongside the Linux drivers
   without a problem" (Section 3.6). *)

let chario_of osenv (tty : Freebsd_char_drv.tty) : Com.unknown =
  Freebsd_char_drv.tty_open osenv tty;
  let rec view () =
    { Io_if.cio_unknown = unknown ();
      cio_read =
        (fun ~buf ~pos ~amount ->
          Cost.charge_glue_crossing Device_io;
          Ok (Freebsd_char_drv.tty_read tty ~buf ~pos ~amount));
      cio_write =
        (fun ~buf ~pos ~amount ->
          Cost.charge_glue_crossing Device_io;
          Ok (Freebsd_char_drv.tty_write tty ~buf ~pos ~amount)) }
  and obj = lazy (Com.create (fun _ -> [ Iid.B (Io_if.chario_iid, fun () -> view ()) ]))
  and unknown () = Lazy.force obj in
  unknown ()

(* The paper's fdev_freebsd init entrypoint. *)
let init_char_devices () =
  Fdev.register_driver
    { Fdev.drv_name = "freebsd-char";
      drv_origin = "freebsd-2.1.5";
      drv_probe =
        (fun osenv -> List.map (chario_of osenv) (Freebsd_char_drv.probe_ttys osenv)) }
