(* Execution-fault injection points for the resilient runtime.

   The tensor layer cannot depend on the seeded fault model (it lives in
   [Gpu.Faults], which depends on tensor), so this module is the meeting
   point: the fault model installs closures here, and the pool / guard
   machinery calls them at well-defined places — once per guarded kernel
   launch (crash/hang/corruption of the kernel as a whole) and once per
   claimed pool chunk (worker-level crash/hang beneath the pool). With no
   hooks installed every call site is a handful of loads and compares, so
   the clean path pays nothing measurable. *)

exception Injected_crash of { kernel : string; instance : int; chunk : int }

let () =
  Printexc.register_printer (function
    | Injected_crash { kernel; instance; chunk } ->
        Some
          (Printf.sprintf
             "Execfault.Injected_crash: injected crash in kernel %s \
              (instance %d%s)"
             kernel instance
             (if chunk >= 0 then Printf.sprintf ", chunk %d" chunk else ""))
    | _ -> None)

type hooks = {
  on_kernel : kernel:string -> instance:int -> unit;
      (* called before a guarded kernel runs; may raise or (cooperatively)
         hang *)
  on_chunk : label:string -> chunk:int -> unit;
      (* called by a pool worker before running a claimed chunk *)
  corrupt : kernel:string -> instance:int -> float array -> unit;
      (* may poison a kernel's freshly computed output in place *)
}

let installed : hooks option ref = ref None
let mutex = Mutex.create ()

(* Per-kernel launch counters, so the fault model can key its draws by
   (kernel, instance) and a campaign is deterministic regardless of what
   else ran in the process. Counters are only bumped while hooks are
   installed; [install] resets them so repeated campaigns with the same
   spec see identical draws. *)
let counters : (string, int) Hashtbl.t = Hashtbl.create 16

let install h =
  Mutex.lock mutex;
  installed := h;
  Hashtbl.reset counters;
  Mutex.unlock mutex

let with_hooks h f =
  install (Some h);
  Fun.protect ~finally:(fun () -> install None) f

let next_instance kernel =
  Mutex.lock mutex;
  let i = match Hashtbl.find_opt counters kernel with Some i -> i | None -> 0 in
  Hashtbl.replace counters kernel (i + 1);
  Mutex.unlock mutex;
  i

(* [enter ~kernel] is called by the guard immediately before the fast
   implementation runs: it assigns the launch its instance number and gives
   the installed fault model a chance to crash or hang it. Returns the
   instance so the matching [corrupt_output] call sees the same identity. *)
let enter ~kernel =
  match !installed with
  | None -> -1
  | Some h ->
      let instance = next_instance kernel in
      h.on_kernel ~kernel ~instance;
      instance

let on_chunk ~label ~chunk =
  match !installed with None -> () | Some h -> h.on_chunk ~label ~chunk

let corrupt_output ~kernel ~instance data =
  match !installed with
  | None -> ()
  | Some h -> if instance >= 0 then h.corrupt ~kernel ~instance data
