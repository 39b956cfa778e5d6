(* Monotonic time in seconds, to the nanosecond: latencies of a few
   microseconds need more than gettimeofday's resolution, and a clock
   step must not turn into a latency. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
