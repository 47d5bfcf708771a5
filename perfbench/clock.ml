(* Seconds on CLOCK_MONOTONIC, to the nanosecond. *)
external now : unit -> float = "perfbench_monotonic_s"
