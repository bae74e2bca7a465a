(* Guarded execution of fast kernels with automatic oracle fallback.

   Every fast kernel in this repo has an in-tree naive implementation that
   is the semantic ground truth ({!Fastmode}'s oracle). [protected] is the
   one place that chooses between the two, and it makes that oracle an
   actively supervised safety net: the fast implementation runs under the
   ambient guard level, and if it raises, exceeds its per-kernel time
   budget, or writes NaN/Inf into an output, the group is re-executed
   through the fallback closure — degrading throughput, never
   correctness. Each engaged fallback is recorded in the quarantine
   registry, and a kernel that keeps failing trips a per-kernel circuit
   breaker: further launches skip the fast attempt entirely until
   [reset] (no point re-crashing a kernel that has proven itself broken).

   Failure containment details:
   - [Pool.Cancelled] is never swallowed — an outer caller asked the whole
     run to stop, which a kernel-local fallback must not override.
   - [Pool.Deadline_exceeded] is treated as a kernel timeout (recoverable)
     only when the *outer* deadline still has budget left; if the run
     deadline itself expired, it propagates.
   - Before a fallback re-run the current domain's arena scratch pools are
     dropped ({!Arena.reset}), so a kernel that crashed while packing can
     never hand its half-written scratch to the oracle.

   All registry state (quarantine, breakers, recording) is under one
   mutex; guarded launches happen on the submitting domain, so contention
   is nil and the lock is for safety only. *)

type level = Substation_env.guard_level = Off | Exceptions | Nan | Finite

let level_to_string = Substation_env.guard_level_to_string
let level_of_string = Substation_env.guard_level_of_string

(* Exceptions are always caught by default: that costs nothing on the
   clean path (no output scan) and means a crashing kernel degrades to the
   oracle instead of killing the run. NaN/Inf scanning is opt-in via the
   environment or, scoped, via the executor's resilience policy. *)
let default_level = Exceptions

let state_level =
  ref (Option.value (Substation_env.guard ()) ~default:default_level)
let current_level () = !state_level
let set_level l = state_level := l

let with_level l f =
  let saved = !state_level in
  state_level := l;
  Fun.protect ~finally:(fun () -> state_level := saved) f

(* Fallback on/off (the resilience policy's [fallback] knob): when
   disabled, a detected failure raises instead of engaging the oracle. *)
let state_fallback = ref true

let with_fallback b f =
  let saved = !state_fallback in
  state_fallback := b;
  Fun.protect ~finally:(fun () -> state_fallback := saved) f

(* Per-kernel wall-clock budget applied to each guarded fast attempt. *)
let state_timeout : float option ref = ref None

let with_kernel_timeout t f =
  let saved = !state_timeout in
  state_timeout := t;
  Fun.protect ~finally:(fun () -> state_timeout := saved) f

exception
  Guard_fault of { kernel : string; reason : string }

let () =
  Printexc.register_printer (function
    | Guard_fault { kernel; reason } ->
        Some
          (Printf.sprintf
             "Guard.Guard_fault: kernel %s failed (%s) and fallback is \
              disabled; enable the resilience policy's fallback or rerun \
              with SUBSTATION_GUARD=off"
             kernel reason)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Registry: quarantine, circuit breakers, fallback-event recording     *)
(* ------------------------------------------------------------------ *)

type entry = { q_kernel : string; q_reason : string; q_count : int }

type event = { e_kernel : string; e_reason : string }

let mutex = Mutex.create ()
let quarantine_tbl : (string * string, int) Hashtbl.t = Hashtbl.create 16
let breaker_tbl : (string, int) Hashtbl.t = Hashtbl.create 16
let tripped_tbl : (string, unit) Hashtbl.t = Hashtbl.create 16
let recording : event list ref option ref = ref None

(* Consecutive failures before a kernel's breaker trips. *)
let breaker_threshold = 3

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let quarantine () =
  locked (fun () ->
      Hashtbl.fold
        (fun (k, r) c acc -> { q_kernel = k; q_reason = r; q_count = c } :: acc)
        quarantine_tbl []
      |> List.sort compare)

let tripped kernel = locked (fun () -> Hashtbl.mem tripped_tbl kernel)

let reset () =
  locked (fun () ->
      Hashtbl.reset quarantine_tbl;
      Hashtbl.reset breaker_tbl;
      Hashtbl.reset tripped_tbl)

let record_failure kernel reason =
  locked (fun () ->
      let key = (kernel, reason) in
      Hashtbl.replace quarantine_tbl key
        (1 + Option.value (Hashtbl.find_opt quarantine_tbl key) ~default:0);
      let fails =
        1 + Option.value (Hashtbl.find_opt breaker_tbl kernel) ~default:0
      in
      Hashtbl.replace breaker_tbl kernel fails;
      if fails >= breaker_threshold then Hashtbl.replace tripped_tbl kernel ())

let note_success kernel =
  locked (fun () ->
      if Hashtbl.mem breaker_tbl kernel then Hashtbl.replace breaker_tbl kernel 0)

let note_fallback kernel reason =
  locked (fun () ->
      match !recording with
      | None -> ()
      | Some events -> events := { e_kernel = kernel; e_reason = reason } :: !events)

let with_recording f =
  let events = ref [] in
  let saved = !recording in
  recording := Some events;
  let r = Fun.protect ~finally:(fun () -> recording := saved) f in
  (r, List.rev !events)

(* ------------------------------------------------------------------ *)
(* The guard itself                                                    *)
(* ------------------------------------------------------------------ *)

(* Internal: a value-level fault found by the output scan. *)
exception Detected of string

let scan_outputs lvl outputs =
  if lvl = Nan || lvl = Finite then
    List.iter
      (fun data ->
        let n = Array.length data in
        let i = ref 0 in
        while !i < n do
          let v = Array.unsafe_get data !i in
          if Float.is_nan v then raise (Detected "NaN in output");
          if lvl = Finite && not (Float.is_finite v) then
            raise (Detected "Inf in output");
          incr i
        done)
      outputs

let reason_of = function
  | Detected r -> r
  | Execfault.Injected_crash _ -> "injected crash"
  | Pool.Deadline_exceeded _ -> "kernel timeout"
  | e -> "exception: " ^ Printexc.to_string e

(* The one reader of {!Fastmode.enabled}, so the fast-or-oracle choice is
   made here and nowhere else: on the naive backend the oracle runs
   directly, with no fault hook, quarantine entry or recorded event. *)
let protected ~kernel ~outputs ~fallback fast =
  let lvl = current_level () in
  let attempt () =
    let run () =
      let instance = Execfault.enter ~kernel in
      let r = fast () in
      let outs = outputs r in
      List.iter (Execfault.corrupt_output ~kernel ~instance) outs;
      scan_outputs lvl outs;
      r
    in
    match !state_timeout with
    | Some t when lvl <> Off -> Pool.with_deadline ~scope:kernel t run
    | _ -> run ()
  in
  if not (Fastmode.enabled ()) then fallback ()
  else if lvl = Off then attempt ()
  else if tripped kernel then begin
    note_fallback kernel "circuit breaker open";
    fallback ()
  end
  else begin
    match attempt () with
    | r ->
        note_success kernel;
        r
    | exception Pool.Cancelled -> raise Pool.Cancelled
    | exception e ->
        (* A run-level deadline must win over kernel-local recovery: only
           treat Deadline_exceeded as a kernel timeout when the ambient
           (outer) deadline still has budget. *)
        (match e with
        | Pool.Deadline_exceeded _ -> (
            match Pool.deadline_left () with
            | Some left when left <= 0.0 -> raise e
            | _ -> ())
        | _ -> ());
        let reason = reason_of e in
        record_failure kernel reason;
        if !state_fallback then begin
          note_fallback kernel reason;
          (* Drop this domain's scratch pools: a kernel that died while
             packing must not hand half-written buffers to the oracle. *)
          Arena.reset Arena.global;
          fallback ()
        end
        else
          match e with
          | Detected reason -> raise (Guard_fault { kernel; reason })
          | e -> raise e
  end
