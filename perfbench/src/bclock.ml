(* The benchmark's own clocks.

   [now] is the CPU time of the benchmark's process: user plus system
   time of all its threads, from getrusage. Every time the benchmark
   prints is measured with it, around calls into the library's public
   functions. At jobs 1 the compiler runs on one core and waits for
   nothing but the disk, so on an idle machine its CPU time is its wall
   time. On a shared host the wall also counts the time the process
   waits for a core; the CPU time does not.

   The benchmark never reads a compile report's [compile_seconds]: on
   the QOC backend that value adds the GRAPE seconds to a wall time that
   already contains them, so it counts real synthesis time twice.

   [wall] is CLOCK_MONOTONIC. It only decides how long a run measures. *)

let now () = Sys.time ()

let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [timed f add] runs [f] and hands its elapsed CPU seconds to [add]. *)
let timed f add =
  let t0 = now () in
  let r = f () in
  add (now () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Reference seconds                                                   *)
(* ------------------------------------------------------------------ *)

(* CPU time alone is not steady on a shared host: neighbours on the same
   physical core change how much work a CPU second buys, by up to a
   factor of two over seconds to minutes, with no steal time to show for
   it. The end-to-end times are therefore taken in reference seconds: a
   measured CPU time, scaled by how fast the core ran a fixed kernel
   just before and just after it, relative to the kernel's nominal time.

   The kernels are the benchmark's own code, never the library's, so a
   change to the library cannot make them faster or slower. Their loops
   allocate nothing, so the program's heap and GC cannot change their
   speed either. Each workload is calibrated with the kernel that slows
   down the way its hot loop does (see perfbench/README.md):

   - [Compute]: a dense float product, a pointer chase and an integer
     sort, for search, pricing and mining on the model backend.
   - [Stream]: read-modify-write sweeps over a buffer the size of the
     default minor heap and over one that fits in L2, for GRAPE, whose
     small complex-matrix temporaries stream through the minor heap. *)

type kernel = Compute | Stream

let kn = 32

let ka =
  Array.init kn (fun i ->
      Array.init kn (fun j -> float (((i * 7) + (j * 3)) mod 11) /. 11.0))

let kb =
  Array.init kn (fun i ->
      Array.init kn (fun j -> float (((i * 5) + j) mod 13) /. 13.0))

let kc = Array.make_matrix kn kn 0.0
let chase_len = 8192

(* one cycle through every slot: i -> (i + 4099) mod 8192 *)
let chase = Array.init chase_len (fun i -> (i + 4099) mod chase_len)
let keys = Array.init 2048 (fun i -> (i * 7919) mod 2053)
let sorted = Array.make 2048 0
let sink = ref 0

(* Shell sort, because [Array.sort] allocates *)
let shell_sort (a : int array) =
  let gap = ref (Array.length a / 2) in
  while !gap > 0 do
    let g = !gap in
    for i = g to Array.length a - 1 do
      let x = a.(i) and j = ref i in
      while !j >= g && a.(!j - g) > x do
        a.(!j) <- a.(!j - g);
        j := !j - g
      done;
      a.(!j) <- x
    done;
    gap := g / 2
  done

let compute () =
  for i = 0 to kn - 1 do
    let ai = ka.(i) and ci = kc.(i) in
    for j = 0 to kn - 1 do
      let s = ref 0.0 in
      for k = 0 to kn - 1 do
        s := !s +. (ai.(k) *. kb.(k).(j))
      done;
      ci.(j) <- !s
    done
  done;
  let p = ref 0 in
  for _ = 1 to 4 * chase_len do
    p := chase.(!p)
  done;
  Array.blit keys 0 sorted 0 (Array.length keys);
  shell_sort sorted;
  sink := !sink + !p + sorted.(17) + truncate kc.(3).(5)

(* 2 MiB, outside the OCaml heap so that [peak_heap_mb] does not see it *)
let buffer =
  let b = Bigarray.(Array1.create float64 c_layout (1 lsl 18)) in
  Bigarray.Array1.fill b 1.0;
  b

let sweep n reps =
  for _ = 1 to reps do
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set buffer i
        ((Bigarray.Array1.unsafe_get buffer i *. 0.999) +. 0.001)
    done
  done

let stream () =
  sweep (1 lsl 18) 3;
  sweep (1 lsl 14) 48

let kernel = ref Compute

(* Each kernel's median calibration on the machine the first baseline
   was taken on (a 2-vCPU Xeon virtual machine, see perfbench/README.md),
   so that reference seconds read about as CPU seconds there. *)
let nominal_s () = match !kernel with Compute -> 0.0026 | Stream -> 0.0024

(* CPU seconds spent calibrating so far *)
let calibrating = ref 0.0

(* CPU seconds of one calibration, a few milliseconds *)
let calibrate () =
  let t0 = now () in
  (match !kernel with
  | Compute ->
    for _ = 1 to 8 do
      compute ()
    done
  | Stream -> stream ());
  let t = now () -. t0 in
  calibrating := !calibrating +. t;
  t

(* A meter times consecutive steps in CPU and reference seconds, with
   one calibration between each step and the next. *)
type meter = {
  mutable cal : float;  (** the last calibration *)
  mutable cpu_s : float;
  mutable ref_s : float
}

let meter () = { cal = calibrate (); cpu_s = 0.0; ref_s = 0.0 }

(* [step m f] runs [f]; returns its result and its reference seconds.
   Calibrations inside [f] (a set-up that runs a warm-up pass) are not
   part of its time. *)
let step m f =
  let t0 = now () and c0 = !calibrating in
  let r = f () in
  let t = now () -. t0 -. (!calibrating -. c0) in
  let cal = calibrate () in
  let s = t *. nominal_s () /. ((m.cal +. cal) /. 2.0) in
  m.cal <- cal;
  m.cpu_s <- m.cpu_s +. t;
  m.ref_s <- m.ref_s +. s;
  (r, s)
