type kind =
  | Pmem_read
  | Pmem_write
  | Pmem_flush
  | Pmem_cas
  | Exec_call
  | Exec_recover
  | Net_request
  | Recovery_span

let kinds =
  [
    Pmem_read;
    Pmem_write;
    Pmem_flush;
    Pmem_cas;
    Exec_call;
    Exec_recover;
    Net_request;
    Recovery_span;
  ]

let kind_name = function
  | Pmem_read -> "pmem_read"
  | Pmem_write -> "pmem_write"
  | Pmem_flush -> "pmem_flush"
  | Pmem_cas -> "pmem_cas"
  | Exec_call -> "exec_call"
  | Exec_recover -> "exec_recover"
  | Net_request -> "net_request"
  | Recovery_span -> "recovery_span"

let index = function
  | Pmem_read -> 0
  | Pmem_write -> 1
  | Pmem_flush -> 2
  | Pmem_cas -> 3
  | Exec_call -> 4
  | Exec_recover -> 5
  | Net_request -> 6
  | Recovery_span -> 7

let histograms = Array.init (List.length kinds) (fun _ -> Histogram.create ())
let histogram kind = histograms.(index kind)
let counters = Counters.create ()

let record_latency kind ~t0_ns =
  Histogram.record (histogram kind) (Config.now_ns () - t0_ns)

let start () = if Config.enabled () then Config.now_ns () else -1
let stop kind t0_ns = if t0_ns >= 0 then record_latency kind ~t0_ns

let reset () =
  Array.iter Histogram.reset histograms;
  Counters.reset counters
