(* Host-speed reference.

   The benchmark runs on shared cloud VMs whose speed drifts by up to 2x
   over minutes as other tenants load the physical cores (the vCPUs are not
   descheduled: steal time stays near 0 and CPU time tracks wall time, so
   CPU-time clocks do not help). A wall time measured on its own then says
   more about the neighbours than about the program: encoder-gemm's median
   step read 74-125 ms over six runs of the same code.

   So each timed piece of work is paired with this fixed reference kernel,
   run right after it, and the end-to-end times are reported in nominal
   units: measured time x [nominal_unit_s] / measured kernel time per unit,
   the time the work would take on a host that runs one kernel unit in
   [nominal_unit_s]. A change to the program moves the reported time by the
   same share as on a steady host; a change in the host's speed moves the
   work and the kernel alike and cancels out (over the same six runs the
   normalized median step spread 2%). The per-layer figures of a traced run
   stay in wall-clock time; the raw step times are printed beside the
   normalized ones.

   The kernel is plain OCaml on arrays of its own, so nothing in the
   repository can change its speed, and it allocates nothing, so the GC
   never runs inside it. One unit is a 16-row block of a 64x128x128 dense
   matrix product (compute) and one eighth of a streaming pass over three
   256 Ki-float arrays (memory traffic): both kinds of work the steps do. *)

let units_per_sample = 8

(* A round value within what one unit takes on a 2-vCPU cloud VM
   (0.4-0.7 ms seen); only its constancy matters. *)
let nominal_unit_s = 0.5e-3

let k = 128
let rows = 64
let rows_per_unit = rows / units_per_sample
let a = Array.init (rows * k) (fun i -> float_of_int (i mod 7) *. 0.25)
let b = Array.init (k * k) (fun i -> float_of_int (i mod 5) *. 0.125)
let c = Array.make (rows * k) 0.0
let stream_len = 1 lsl 18
let chunk = stream_len / units_per_sample
let x = Array.make stream_len 1.0
let y = Array.make stream_len 0.5
let z = Array.make stream_len 0.0

let unit_ u =
  let u = u mod units_per_sample in
  for i = u * rows_per_unit to ((u + 1) * rows_per_unit) - 1 do
    for j = 0 to k - 1 do
      c.((i * k) + j) <- 0.0
    done;
    for p = 0 to k - 1 do
      let aip = a.((i * k) + p) in
      for j = 0 to k - 1 do
        c.((i * k) + j) <- c.((i * k) + j) +. (aip *. b.((p * k) + j))
      done
    done
  done;
  for i = u * chunk to ((u + 1) * chunk) - 1 do
    z.(i) <- x.(i) +. (0.5 *. y.(i));
    x.(i) <- (0.5 *. z.(i)) -. y.(i)
  done

(* Seconds per unit over [units] consecutive units. *)
let measure units =
  let t0 = Stats.now () in
  for u = 0 to units - 1 do
    unit_ u
  done;
  (Stats.now () -. t0) /. float_of_int units

(* One full sample: every unit once. *)
let sample () = measure units_per_sample

(* [t] seconds of work measured beside a kernel that took [per_unit]
   seconds per unit, in nominal seconds. *)
let normalize ~per_unit t = t *. nominal_unit_s /. per_unit
