(* Host and run metadata reported with every result. *)

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> String.trim (input_line ic))

(* The commit checked out in the current directory, read from .git without
   starting a process; "unknown" outside a git checkout. *)
let git_commit () =
  try
    let head = read_file ".git/HEAD" in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let ref_ = String.sub head 5 (String.length head - 5) in
      let loose = Filename.concat ".git" ref_ in
      if Sys.file_exists loose then read_file loose
      else
        let ic = open_in ".git/packed-refs" in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec scan () =
              let line = input_line ic in
              match String.split_on_char ' ' line with
              | [ sha; r ] when r = ref_ -> sha
              | _ -> scan ()
            in
            scan ())
    end
    else head
  with Sys_error _ | End_of_file -> "unknown"
