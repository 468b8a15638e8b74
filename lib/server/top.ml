module J = Anyseq_util.Jsonv

let replied doc = Option.map (J.num ~default:0.0 "replied") (J.member "requests" doc)

let render ~label ~rate doc =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.bprintf b fmt in
  let srv = Option.value ~default:J.Null (J.member "server" doc) in
  pr "anyseq top — %s   uptime %.0fs   draining: %s\n" label
    (J.num ~default:0.0 "uptime_s" srv)
    (match J.member "draining" srv with Some (J.Bool true) -> "YES" | _ -> "no");
  (match J.member "requests" doc with
  | Some req ->
      pr
        "requests: %.0f received, %.0f replied (%.1f req/s), %.0f bad, %.0f rejected   \
         connections: %.0f   dispatch queue: %.0f\n"
        (J.num ~default:0.0 "received" req)
        (J.num ~default:0.0 "replied" req)
        rate
        (J.num ~default:0.0 "bad" req)
        (J.num ~default:0.0 "queue_rejected" req)
        (J.num ~default:0.0 "connections" srv)
        (J.num ~default:0.0 "dispatch_queue" srv)
  | None -> ());
  (match J.member "stages" doc with
  | Some stages ->
      pr "\n%-9s %10s %10s %10s %12s\n" "stage" "p50(us)" "p90(us)" "p99(us)" "count";
      List.iter
        (fun name ->
          match J.member name stages with
          | Some s when J.num ~default:0.0 "count" s > 0.0 ->
              pr "%-9s %10.0f %10.0f %10.0f %12.0f\n" name
                (J.num ~default:0.0 "p50_us" s)
                (J.num ~default:0.0 "p90_us" s)
                (J.num ~default:0.0 "p99_us" s)
                (J.num ~default:0.0 "count" s)
          | _ -> pr "%-9s %10s %10s %10s %12s\n" name "-" "-" "-" "0")
        Server.stages
  | None -> ());
  (match Option.bind (J.member "shards" doc) J.to_list with
  | Some (_ :: _ as shards) ->
      pr "\n%-6s %10s %8s %10s %8s %8s %14s\n" "shard" "jobs" "queued" "in-flight" "steals"
        "stolen" "minor-words";
      List.iter
        (fun s ->
          pr "%-6.0f %10.0f %8.0f %10.0f %8.0f %8.0f %14.0f\n"
            (J.num ~default:0.0 "shard" s)
            (J.num ~default:0.0 "jobs" s)
            (J.num ~default:0.0 "queued" s)
            (J.num ~default:0.0 "in_flight" s)
            (J.num ~default:0.0 "steals" s)
            (J.num ~default:0.0 "stolen_from" s)
            (J.num ~default:0.0 "minor_words" s))
        shards
  | _ -> ());
  (match J.member "network" doc with
  | Some net ->
      let pruned = J.num ~default:0.0 "pairs_pruned" net in
      let total = J.num ~default:0.0 "pairs_total" net in
      pr
        "\nnetwork [%s]: %.0f seqs indexed, %.0f/%.0f pairs aligned (%.1f%% pruned, %.0f cut \
         off), %.0f edges, %.0f components\n"
        (J.str ~default:"?" "phase" net)
        (J.num ~default:0.0 "seqs_indexed" net)
        (J.num ~default:0.0 "pairs_aligned" net)
        total
        (if total > 0.0 then 100.0 *. pruned /. total else 0.0)
        (J.num ~default:0.0 "pairs_cutoff" net)
        (J.num ~default:0.0 "edges_written" net)
        (J.num ~default:0.0 "components" net)
  | None -> ());
  (match J.member "tiers" doc with
  | Some (J.Obj fields) ->
      pr "\ntiers:";
      List.iter
        (fun (name, v) ->
          match J.to_num v with Some n when n > 0.0 -> pr "  %s %.0f" name n | _ -> ())
        fields;
      pr "\n"
  | _ -> ());
  (match J.member "cache" doc with
  | Some c ->
      let hits = J.num ~default:0.0 "hits" c and misses = J.num ~default:0.0 "misses" c in
      let total = hits +. misses in
      pr "cache: %.0f/%.0f entries, hit rate %.1f%%\n"
        (J.num ~default:0.0 "size" c)
        (J.num ~default:0.0 "capacity" c)
        (if total > 0.0 then 100.0 *. hits /. total else 0.0)
  | None -> ());
  (match J.member "flight" doc with
  | Some f ->
      pr "flight: %.0f recorded (ring of %.0f), %.0f dumps\n"
        (J.num ~default:0.0 "recorded" f)
        (J.num ~default:0.0 "capacity" f)
        (J.num ~default:0.0 "dumps" f)
  | None -> ());
  Buffer.contents b
