module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Fault = Aurora_block.Fault
module Wire = Aurora_objstore.Wire
module Store = Aurora_objstore.Store
module Serial = Aurora_core.Serial

let payload c = Bytes.make 64 c

let fresh () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  (clock, dev, store)

let test_wire_roundtrip () =
  let w = Wire.writer () in
  Wire.u8 w 200;
  Wire.u32 w 123456;
  Wire.u64 w 987654321012;
  Wire.str w "hello";
  Wire.list w (fun x -> Wire.u32 w x) [ 1; 2; 3 ];
  let r = Wire.reader (Wire.contents w) in
  Alcotest.(check int) "u8" 200 (Wire.ru8 r);
  Alcotest.(check int) "u32" 123456 (Wire.ru32 r);
  Alcotest.(check int) "u64" 987654321012 (Wire.ru64 r);
  Alcotest.(check string) "str" "hello" (Wire.rstr r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Wire.rlist r Wire.ru32);
  Alcotest.(check int) "consumed" 0 (Wire.remaining r)

let test_wire_short_read_raises () =
  let r = Wire.reader (Bytes.make 2 'x') in
  Alcotest.(check bool) "raises Corrupt" true
    (try
       ignore (Wire.ru64 r);
       false
     with Wire.Corrupt _ -> true)

let test_checkpoint_roundtrip () =
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"proc" ~meta:"serialized-proc-state";
  Store.put_pages store ~oid [ (0, payload 'a'); (7, payload 'b') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Alcotest.(check int) "epoch complete" epoch (Store.last_complete_epoch store);
  Alcotest.(check string) "meta" "serialized-proc-state" (Store.read_meta store ~epoch ~oid);
  Alcotest.(check (list int)) "page indices" [ 0; 7 ] (Store.page_indices store ~epoch ~oid);
  (match Store.read_page store ~epoch ~oid ~idx:7 with
  | Some data -> Alcotest.(check bytes) "page content" (payload 'b') data
  | None -> Alcotest.fail "page 7 missing");
  Alcotest.(check (option bytes)) "absent page" None (Store.read_page store ~epoch ~oid ~idx:3)

let test_incremental_cow () =
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let e1 = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"";
  Store.put_pages store ~oid [ (0, payload 'x'); (1, payload 'y') ];
  ignore (Store.commit_checkpoint store);
  let e2 = Store.begin_checkpoint store in
  (* Only page 1 dirty in the second epoch. *)
  Store.put_pages store ~oid [ (1, payload 'Y') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  (* Old epoch still reads the old data; new epoch merges. *)
  Alcotest.(check (option bytes)) "e1 page1 old" (Some (payload 'y'))
    (Store.read_page store ~epoch:e1 ~oid ~idx:1);
  Alcotest.(check (option bytes)) "e2 page1 new" (Some (payload 'Y'))
    (Store.read_page store ~epoch:e2 ~oid ~idx:1);
  Alcotest.(check (option bytes)) "e2 page0 carried over" (Some (payload 'x'))
    (Store.read_page store ~epoch:e2 ~oid ~idx:0)

let test_unchanged_object_carries_forward () =
  let _clock, _dev, store = fresh () in
  let oid_a = Store.alloc_oid store in
  let oid_b = Store.alloc_oid store in
  let _e1 = Store.begin_checkpoint store in
  Store.put_object store ~oid:oid_a ~kind:"vnode" ~meta:"A";
  Store.put_object store ~oid:oid_b ~kind:"vnode" ~meta:"B";
  ignore (Store.commit_checkpoint store);
  let e2 = Store.begin_checkpoint store in
  Store.put_object store ~oid:oid_a ~kind:"vnode" ~meta:"A2";
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Alcotest.(check string) "updated object" "A2" (Store.read_meta store ~epoch:e2 ~oid:oid_a);
  Alcotest.(check string) "untouched object still present" "B"
    (Store.read_meta store ~epoch:e2 ~oid:oid_b);
  Alcotest.(check int) "table lists both" 2 (List.length (Store.objects_at store ~epoch:e2))

let test_recovery_after_clean_shutdown () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epoch = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"proc" ~meta:"state-bytes";
  Store.put_pages store ~oid [ (5, payload 'q') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.settle dev ~clock;
  (* Mount a brand-new store instance from the device bytes alone. *)
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "epoch recovered" epoch (Store.last_complete_epoch store2);
  Alcotest.(check string) "meta recovered" "state-bytes"
    (Store.read_meta store2 ~epoch ~oid);
  Alcotest.(check (option bytes)) "page recovered" (Some (payload 'q'))
    (Store.read_page store2 ~epoch ~oid ~idx:5)

let test_crash_mid_checkpoint_keeps_previous () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let e1 = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"good";
  Store.put_pages store ~oid [ (0, payload 'g') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let durable_point = Clock.now clock in
  (* Second checkpoint: submit but crash before it becomes durable. *)
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:"torn";
  Store.put_pages store ~oid [ (0, payload 't') ];
  ignore (Store.commit_checkpoint store);
  Striped.crash dev ~now:durable_point;
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "previous checkpoint found" e1 (Store.last_complete_epoch store2);
  Alcotest.(check string) "no torn state" "good" (Store.read_meta store2 ~epoch:e1 ~oid);
  Alcotest.(check (option bytes)) "old page intact" (Some (payload 'g'))
    (Store.read_page store2 ~epoch:e1 ~oid ~idx:0)

let test_crash_before_any_checkpoint () =
  let clock, dev, store = fresh () in
  ignore store;
  Striped.settle dev ~clock;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "empty store" 0 (Store.last_complete_epoch store2)

let test_recover_uninitialized_device_fails () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Store.recover ~dev ~clock);
       false
     with Store.Corrupt_store _ -> true)

let test_journal_append_and_scan () =
  let _clock, _dev, store = fresh () in
  let j = Store.journal_create store ~size:(256 * 1024) in
  Store.journal_append store j "record-one";
  Store.journal_append store j "record-two";
  Store.journal_append store j "record-three";
  Alcotest.(check (list string)) "scan finds records"
    [ "record-one"; "record-two"; "record-three" ]
    (Store.journal_records store j)

let test_journal_truncate () =
  let _clock, _dev, store = fresh () in
  let j = Store.journal_create store ~size:(64 * 1024) in
  Store.journal_append store j "old";
  Store.journal_truncate store j;
  Alcotest.(check (list string)) "empty after truncate" [] (Store.journal_records store j);
  Store.journal_append store j "new";
  Alcotest.(check (list string)) "appends after truncate" [ "new" ]
    (Store.journal_records store j)

let test_journal_survives_crash () =
  let clock, dev, store = fresh () in
  let j = Store.journal_create store ~size:(64 * 1024) in
  Store.journal_append store j "committed-write";
  (* journal_append is synchronous: already durable at this clock. *)
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  match Store.journal_find store2 (Store.journal_id j) with
  | Some j2 ->
      Alcotest.(check (list string)) "records recovered" [ "committed-write" ]
        (Store.journal_records store2 j2)
  | None -> Alcotest.fail "journal registry lost"

let test_journal_timing_anchor () =
  (* Table 5: a synchronous 4 KiB journal write costs ~28 us. *)
  let clock, _dev, store = fresh () in
  let j = Store.journal_create store ~size:(1024 * 1024) in
  let before = Clock.now clock in
  Store.journal_append store j (String.make 4096 'w');
  let cost = Clock.now clock - before in
  Alcotest.(check bool)
    (Printf.sprintf "4KiB journal ~28us (got %dns)" cost)
    true
    (cost > 24_000 && cost < 35_000)

let test_prune_history_frees_blocks () =
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  for i = 1 to 10 do
    ignore (Store.begin_checkpoint store);
    Store.put_object store ~oid ~kind:"memory" ~meta:(string_of_int i);
    Store.put_pages store ~oid [ (i, payload 'p') ];
    ignore (Store.commit_checkpoint store)
  done;
  Store.wait_durable store;
  Alcotest.(check int) "ten epochs retained" 10 (List.length (Store.checkpoint_epochs store));
  let freed = Store.prune_history store ~keep:2 in
  Alcotest.(check int) "two epochs left" 2 (List.length (Store.checkpoint_epochs store));
  Alcotest.(check bool) (Printf.sprintf "freed blocks (%d)" freed) true (freed > 0);
  (* The kept epochs still read correctly. *)
  match Store.checkpoint_epochs store with
  | [ e9; e10 ] ->
      Alcotest.(check string) "meta of kept epoch" "9" (Store.read_meta store ~epoch:e9 ~oid);
      Alcotest.(check string) "meta of latest" "10" (Store.read_meta store ~epoch:e10 ~oid)
  | other -> Alcotest.failf "unexpected epochs: %d" (List.length other)

let test_history_is_time_travel () =
  (* Every epoch remains restorable: the execution-history property. *)
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let epochs =
    List.init 5 (fun i ->
        let e = Store.begin_checkpoint store in
        Store.put_object store ~oid ~kind:"memory" ~meta:"";
        Store.put_pages store ~oid [ (0, payload (Char.chr (Char.code 'a' + i))) ];
        ignore (Store.commit_checkpoint store);
        e)
  in
  Store.wait_durable store;
  List.iteri
    (fun i e ->
      Alcotest.(check (option bytes))
        (Printf.sprintf "epoch %d content" e)
        (Some (payload (Char.chr (Char.code 'a' + i))))
        (Store.read_page store ~epoch:e ~oid ~idx:0))
    epochs

let test_leaf_span_boundaries () =
  (* Page indices straddling radix-leaf boundaries must round-trip and
     stay independent across epochs. *)
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let span = Store.leaf_span in
  let idxs = [ 0; span - 1; span; span + 1; (2 * span) - 1; 2 * span; 977 ] in
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:"";
  Store.put_pages store ~oid (List.map (fun i -> (i, payload 'x')) idxs);
  ignore (Store.commit_checkpoint store);
  (* Update only the page at the boundary; neighbours must carry over. *)
  let e2 = Store.begin_checkpoint store in
  Store.put_pages store ~oid [ (span, payload 'Y') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  List.iter
    (fun i ->
      let expected = if i = span then payload 'Y' else payload 'x' in
      Alcotest.(check (option bytes))
        (Printf.sprintf "page %d" i)
        (Some expected)
        (Store.read_page store ~epoch:e2 ~oid ~idx:i))
    idxs;
  Alcotest.(check (list int)) "indices" (List.sort compare idxs)
    (Store.page_indices store ~epoch:e2 ~oid)

let test_full_leaf_fits_a_block () =
  (* A completely full leaf must serialize within one block (regression:
     the original span overflowed and recovery failed). *)
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"memory" ~meta:"";
  Store.put_pages store ~oid
    (List.init Store.leaf_span (fun i -> (i, payload 'f')));
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "all pages recovered" Store.leaf_span
    (List.length (Store.page_indices store2 ~epoch:1 ~oid))

let test_many_objects_one_checkpoint () =
  let clock, dev, store = fresh () in
  let oids = List.init 500 (fun _ -> Store.alloc_oid store) in
  ignore (Store.begin_checkpoint store);
  List.iteri
    (fun i oid ->
      Store.put_object store ~oid ~kind:"obj" ~meta:(string_of_int i);
      Store.put_pages store ~oid [ (i, payload (Char.chr (32 + (i mod 90)))) ])
    oids;
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "all objects recovered" 500
    (List.length (Store.objects_at store2 ~epoch:1));
  List.iteri
    (fun i oid ->
      Alcotest.(check string) "meta" (string_of_int i)
        (Store.read_meta store2 ~epoch:1 ~oid))
    oids

let test_journal_generation_isolation () =
  (* Regression for the stale-record bug: a truncated journal must never
     replay records from a previous generation, whatever the sizes. *)
  let _clock, _dev, store = fresh () in
  let j = Store.journal_create store ~size:(64 * 1024) in
  Store.journal_append store j "a-long-first-generation-record";
  Store.journal_append store j "second";
  Store.journal_truncate store j;
  Store.journal_append store j "x";
  Alcotest.(check (list string)) "only generation-2 records" [ "x" ]
    (Store.journal_records store j);
  Store.journal_truncate store j;
  Alcotest.(check (list string)) "empty third generation" []
    (Store.journal_records store j)

let test_prune_then_crash_recover () =
  (* Regression: pruning frees and reuses blocks; the recovery chain walk
     must stop at the oldest retained record instead of following a prev
     pointer into reused space. *)
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  for i = 1 to 20 do
    ignore (Store.begin_checkpoint store);
    Store.put_object store ~oid ~kind:"memory" ~meta:(string_of_int i);
    Store.put_pages store ~oid [ (i mod 7, payload 'p') ];
    ignore (Store.commit_checkpoint store);
    if i mod 6 = 0 then ignore (Store.prune_history store ~keep:2)
  done;
  Store.wait_durable store;
  Striped.crash dev ~now:(Clock.now clock);
  let store2 = Store.recover ~dev ~clock in
  Alcotest.(check int) "latest epoch" 20 (Store.last_complete_epoch store2);
  Alcotest.(check string) "latest meta" "20" (Store.read_meta store2 ~epoch:20 ~oid);
  (* Only post-prune history survives the walk. *)
  Alcotest.(check bool) "history bounded" true
    (List.length (Store.checkpoint_epochs store2) <= 4);
  (* Continue checkpointing on the recovered store. *)
  ignore (Store.begin_checkpoint store2);
  Store.put_object store2 ~oid ~kind:"memory" ~meta:"post-crash";
  ignore (Store.commit_checkpoint store2);
  Store.wait_durable store2;
  Alcotest.(check string) "post-recovery checkpoint works" "post-crash"
    (Store.read_meta store2 ~epoch:(Store.last_complete_epoch store2) ~oid)

let test_double_begin_rejected () =
  let _clock, _dev, store = fresh () in
  ignore (Store.begin_checkpoint store);
  Alcotest.(check bool) "second begin rejected" true
    (try
       ignore (Store.begin_checkpoint store);
       false
     with Invalid_argument _ -> true)

(* Newest-wins staging: re-staging a page index replaces its payload in
   place — both within one put_pages call and across calls in the same
   epoch — and commit stores exactly one entry per index. *)
let test_put_pages_newest_wins () =
  let _clock, _dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let e = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"";
  Store.put_pages store ~oid [ (7, payload 'a'); (7, payload 'b') ];
  Store.put_pages store ~oid [ (9, payload 'x') ];
  Store.put_pages store ~oid [ (9, payload 'y'); (11, payload 'z') ];
  ignore (Store.commit_checkpoint store);
  let page idx =
    match Store.read_page store ~epoch:e ~oid ~idx with
    | Some data -> Bytes.to_string data
    | None -> "<missing>"
  in
  Alcotest.(check string) "later entry of one call wins"
    (Bytes.to_string (payload 'b')) (page 7);
  Alcotest.(check string) "later call wins" (Bytes.to_string (payload 'y')) (page 9);
  Alcotest.(check string) "untouched index kept" (Bytes.to_string (payload 'z'))
    (page 11);
  Alcotest.(check (list int)) "one entry per staged index" [ 7; 9; 11 ]
    (List.sort compare (Store.page_indices store ~epoch:e ~oid));
  let fs = Store.flush_stats store in
  Alcotest.(check int) "dedup happened at staging time" 3 fs.Store.fs_pages

(* Transient read errors are absorbed by the store's retry/backoff policy:
   the caller sees clean data, the fault counter records the absorbed
   attempts, and the backoff is charged in virtual time. *)
let test_read_retry_absorbs_transients () =
  let clock, dev, store = fresh () in
  let oid = Store.alloc_oid store in
  let e = Store.begin_checkpoint store in
  Store.put_object store ~oid ~kind:"memory" ~meta:"m";
  Store.put_pages store ~oid [ (4, payload 'r') ];
  ignore (Store.commit_checkpoint store);
  Store.wait_durable store;
  let f = Fault.create () in
  let remaining = ref 2 in
  f.Fault.on_read <-
    (fun _ ->
      if !remaining > 0 then begin
        decr remaining;
        Fault.Fail
      end
      else Fault.Clean);
  Striped.set_fault dev (Some f);
  let before = Clock.now clock in
  Alcotest.(check (option bytes)) "read succeeds through faults"
    (Some (payload 'r'))
    (Store.read_page store ~epoch:e ~oid ~idx:4);
  Alcotest.(check int) "both faults absorbed and counted" 2 (Store.read_faults store);
  Alcotest.(check bool) "backoff charged in virtual time" true
    (Clock.now clock - before >= 40_000);
  (* With retries disabled the same fault surfaces to the caller. *)
  f.Fault.on_read <- (fun _ -> Fault.Fail);
  Store.set_read_policy store ~retries:0 ~backoff_ns:20_000;
  Alcotest.(check bool) "zero retries propagates Io_error" true
    (try
       ignore (Store.read_page store ~epoch:e ~oid ~idx:4);
       false
     with Fault.Io_error _ -> true);
  Striped.set_fault dev None


(* Byte identity of the streamed commit.  The reference encoders below
   are the list-based ones the store used before it streamed its records
   in oid order: the checkpoint record is the table's (oid, version block)
   list sorted by polymorphic compare and written through Wire.list, and
   the manifest is [Serial.manifest_to_string] of the entries built from
   [Store.staging_manifest_source]. *)
let reference_record ~epoch ~prev_block table =
  let w = Wire.writer () in
  Wire.u8 w 0xA1;
  Wire.u64 w epoch;
  Wire.u64 w prev_block;
  Wire.list w
    (fun (oid, vblock) ->
      Wire.u64 w oid;
      Wire.u64 w vblock)
    (List.sort compare table);
  Wire.contents w

let reference_manifest store ~epoch ~exclude =
  let entries =
    Store.staging_manifest_source store
    |> List.filter (fun (oid, _, _, _) -> oid <> exclude)
    |> List.map Serial.manifest_entry_of_source
  in
  Serial.manifest_to_string
    { Serial.i_m_epoch = epoch; i_m_count = List.length entries; i_m_entries = entries }

(* The record block the superblock names (in-flight writes included). *)
let superblock_record_block dev =
  let r = Wire.reader (Striped.read_nocharge dev ~off:0 ~len:Store.block_size) in
  ignore (Wire.rstr r);
  ignore (Wire.ru64 r);
  Wire.ru64 r

type stream_op =
  | Put of int * int * int  (** oid slot, kind, meta (0 = empty meta) *)
  | Pages of int * (int * int) list  (** oid slot, (page index, fill) *)
  | Commit
  | Prune of int
  | Recover

let pp_stream_op = function
  | Put (o, k, m) -> Printf.sprintf "Put(%d,%d,%d)" o k m
  | Pages (o, ps) ->
      Printf.sprintf "Pages(%d,[%s])" o
        (String.concat ";" (List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c) ps))
  | Commit -> "Commit"
  | Prune k -> Printf.sprintf "Prune %d" k
  | Recover -> "Recover"

let stream_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map3 (fun o k m -> Put (o, k, m)) (int_range 0 5) (int_range 0 2) (int_range 0 6));
        ( 3,
          map2
            (fun o ps -> Pages (o, ps))
            (int_range 0 5)
            (list_size (int_range 1 6) (pair (int_range 0 250) (int_range 0 3))) );
        (3, return Commit);
        (1, map (fun k -> Prune k) (int_range 1 3));
        (1, return Recover);
      ])

(* Run [ops]; at every commit the manifest streamed from
   [Store.iter_staging_manifest] and the checkpoint record read back off
   the device must equal the reference encodings. *)
let streamed_commit_matches_reference ops =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = ref (Store.format ~dev ~clock) in
  let oids = Array.init 6 (fun _ -> Store.alloc_oid !store) in
  let kinds = [| "sls.socket"; "memory"; "sls.proc" |] in
  let open_epoch = ref 0 in
  let ok = ref true in
  let check what b = if not b then begin ok := false; Printf.printf "mismatch: %s\n" what end in
  let ensure_open () =
    if !open_epoch = 0 then open_epoch := Store.begin_checkpoint !store
  in
  List.iter
    (fun op ->
      match op with
      | Put (o, k, m) ->
          ensure_open ();
          Store.put_object !store ~oid:oids.(o) ~kind:kinds.(k)
            ~meta:(if m = 0 then "" else String.make (m * 37) (Char.chr (96 + m)))
      | Pages (o, ps) ->
          ensure_open ();
          Store.put_pages !store ~oid:oids.(o)
            (List.map (fun (idx, c) -> (idx, Bytes.make (16 + (c * 61)) (Char.chr (65 + c)))) ps)
      | Commit when !open_epoch > 0 ->
          let epoch = !open_epoch in
          List.iter
            (fun exclude ->
              check "manifest"
                (Serial.manifest_of_rows ~epoch ~exclude (Store.iter_staging_manifest !store)
                = reference_manifest !store ~epoch ~exclude))
            [ 0; oids.(0) ];
          let prev_block = superblock_record_block dev in
          ignore (Store.commit_checkpoint !store);
          open_epoch := 0;
          let table = Store.version_blocks !store ~epoch in
          let want = reference_record ~epoch ~prev_block table in
          let got =
            Striped.read_nocharge dev
              ~off:(superblock_record_block dev * Store.block_size)
              ~len:(Bytes.length want)
          in
          check "record" (Bytes.equal got want)
      | Prune keep when !open_epoch = 0 -> ignore (Store.prune_history !store ~keep)
      | Recover when !open_epoch = 0 ->
          Store.wait_durable !store;
          let last = Store.last_complete_epoch !store in
          let before = if last = 0 then [] else Store.version_blocks !store ~epoch:last in
          Striped.crash dev ~now:(Clock.now clock);
          store := Store.recover ~dev ~clock;
          check "recovered table"
            (last = 0 || Store.version_blocks !store ~epoch:last = before)
      | Commit | Prune _ | Recover -> ())
    ops;
  !ok

let test_streamed_commit_metadata_then_pages () =
  (* An object staged metadata-only for two epochs, then given pages. *)
  Alcotest.(check bool)
    "metadata-only epochs, then pages" true
    (streamed_commit_matches_reference
       [
         Put (1, 0, 3); Put (2, 2, 1); Commit; Put (1, 0, 4); Commit;
         Pages (1, [ (0, 1); (120, 2) ]); Commit; Recover; Pages (1, [ (0, 3) ]);
         Put (3, 1, 0); Commit; Prune 1; Put (2, 2, 0); Commit;
       ])

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"streamed record and manifest equal the list-based encodings" ~count:120
         (QCheck.make
            ~print:(fun ops -> String.concat " " (List.map pp_stream_op ops))
            QCheck.Gen.(list_size (int_range 1 40) stream_op_gen))
         streamed_commit_matches_reference);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"coalesced flush: crash/recover preserves every retained epoch"
         ~count:20
         QCheck.(
           pair
             (list_of_size (Gen.int_range 2 5)
                (list_of_size (Gen.int_range 1 60)
                   (pair (int_range 0 900) printable_char)))
             (int_range 0 3))
         (fun (epochs_spec, keep_extra) ->
           let clock = Clock.create () in
           let dev = Striped.create () in
           let store = Store.format ~dev ~clock in
           let oid = Store.alloc_oid store in
           List.iter
             (fun pages ->
               ignore (Store.begin_checkpoint store);
               Store.put_object store ~oid ~kind:"memory" ~meta:"equiv";
               Store.put_pages store ~oid
                 (List.map (fun (idx, c) -> (idx, payload c)) pages);
               ignore (Store.commit_checkpoint store))
             epochs_spec;
           (* Pruning also exercises leaf-cache invalidation of freed
              blocks before the crash. *)
           ignore (Store.prune_history store ~keep:(1 + keep_extra));
           Store.wait_durable store;
           let epochs = Store.checkpoint_epochs store in
           let before =
             List.map
               (fun e ->
                 ( e,
                   Store.read_meta store ~epoch:e ~oid,
                   Store.read_pages store ~epoch:e ~oid ))
               epochs
           in
           Striped.crash dev ~now:(Clock.now clock);
           let store2 = Store.recover ~dev ~clock in
           Store.checkpoint_epochs store2 = epochs
           && List.for_all
                (fun (e, meta, pages) ->
                  Store.read_meta store2 ~epoch:e ~oid = meta
                  && Store.read_pages store2 ~epoch:e ~oid = pages)
                before));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"prune atomicity: crash around the prune record is all-or-nothing"
         ~count:20
         QCheck.(
           pair
             (list_of_size (Gen.int_range 3 6)
                (list_of_size (Gen.int_range 1 30)
                   (pair (int_range 0 600) printable_char)))
             (int_range 1 2))
         (fun (epochs_spec, keep) ->
           (* Build the same history twice; prune_history returns with the
              clock advanced exactly to its superblock's completion, so
              [now - 1] crashes with the prune record submitted but not
              durable and [now] crashes with it just durable. *)
           let build () =
             let clock = Clock.create () in
             let dev = Striped.create () in
             let store = Store.format ~dev ~clock in
             let oid = Store.alloc_oid store in
             List.iter
               (fun pages ->
                 ignore (Store.begin_checkpoint store);
                 Store.put_object store ~oid ~kind:"memory" ~meta:"m";
                 Store.put_pages store ~oid
                   (List.map (fun (idx, c) -> (idx, payload c)) pages);
                 ignore (Store.commit_checkpoint store))
               epochs_spec;
             Store.wait_durable store;
             (clock, dev, store, oid)
           in
           let snapshot store oid =
             List.map
               (fun e ->
                 ( e,
                   Store.read_meta store ~epoch:e ~oid,
                   Store.read_pages store ~epoch:e ~oid ))
               (Store.checkpoint_epochs store)
           in
           (* Prune record lost: the full pre-prune history recovers —
              freed-in-memory blocks were never overwritten on disk. *)
           let clock_a, dev_a, store_a, oid_a = build () in
           let before_a = snapshot store_a oid_a in
           ignore (Store.prune_history store_a ~keep);
           Striped.crash dev_a ~now:(Clock.now clock_a - 1);
           let ra = Store.recover ~dev:dev_a ~clock:(Clock.create ()) in
           let ok_a = snapshot ra oid_a = before_a in
           (* Prune record durable: exactly the kept suffix recovers. *)
           let clock_b, dev_b, store_b, oid_b = build () in
           ignore (Store.prune_history store_b ~keep);
           let after_b = snapshot store_b oid_b in
           Striped.crash dev_b ~now:(Clock.now clock_b);
           let rb = Store.recover ~dev:dev_b ~clock:(Clock.create ()) in
           let ok_b =
             snapshot rb oid_b = after_b
             && List.length (Store.checkpoint_epochs rb) = keep
           in
           (* Both recoveries rebuild the content-addressed index from the
              durable leaves: its refcounts must match a fresh walk. *)
           ok_a && ok_b
           && Store.content_index_consistent ra
           && Store.content_index_consistent rb));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"mid-epoch prune: dedup-referenced pages survive the sweep"
         ~count:20
         QCheck.(
           triple
             (list_of_size (Gen.int_range 3 5)
                (list_of_size (Gen.int_range 1 25)
                   (pair (int_range 0 400) printable_char)))
             (list_of_size (Gen.int_range 1 25) (pair (int_range 0 400) printable_char))
             (int_range 1 2))
         (fun (epochs_spec, staged, keep) ->
           (* A checkpoint is staged, a prune runs mid-epoch, then the
              commit dedups its pages — several byte-identical to payloads
              the dropped epochs wrote.  Matches may only land on
              locations the kept epochs still reach, so every page must
              read back correctly before and after a crash, and the
              content index must agree with the durable leaves. *)
           let clock = Clock.create () in
           let dev = Striped.create () in
           let store = Store.format ~dev ~clock in
           let oid = Store.alloc_oid store in
           List.iter
             (fun pages ->
               ignore (Store.begin_checkpoint store);
               Store.put_object store ~oid ~kind:"memory" ~meta:"m";
               Store.put_pages store ~oid
                 (List.map (fun (idx, c) -> (idx, payload c)) pages);
               ignore (Store.commit_checkpoint store))
             epochs_spec;
           Store.wait_durable store;
           let e = Store.begin_checkpoint store in
           Store.put_object store ~oid ~kind:"memory" ~meta:"mid";
           (* Re-stage early epochs' exact payloads (dedup bait pointing
              into soon-pruned history) plus this epoch's fresh pages. *)
           let bait =
             List.concat (match epochs_spec with p :: _ -> [ p ] | [] -> [])
           in
           let pages = bait @ staged in
           Store.put_pages store ~oid
             (List.map (fun (idx, c) -> (idx, payload c)) pages);
           ignore (Store.prune_history store ~keep);
           ignore (Store.commit_checkpoint store);
           Store.wait_durable store;
           (* Latest content per index: staged list wins over bait. *)
           let model = Hashtbl.create 64 in
           List.iter (fun (idx, c) -> Hashtbl.replace model idx c) pages;
           let check st =
             Hashtbl.fold
               (fun idx c ok ->
                 ok
                 && Store.read_page st ~epoch:e ~oid ~idx = Some (payload c))
               model true
             && Store.content_index_consistent st
           in
           let ok_live = check store in
           Striped.crash dev ~now:(Clock.now clock);
           let r = Store.recover ~dev ~clock:(Clock.create ()) in
           ok_live && check r));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"dedup+delta epochs restore byte-identically to a forced-full epoch"
         ~count:30
         QCheck.(
           list_of_size (Gen.int_range 2 5)
             (list_of_size (Gen.int_range 1 30)
                (pair (int_range 0 350) printable_char)))
         (fun epochs_spec ->
           (* Store A accumulates the state as delta epochs with dedup and
              compression on (the repeated single-char payloads dedup
              heavily); store B writes the composed final state in one
              epoch with both off — the whole-page baseline layout.  The
              two must be byte-identical page for page, before and after A
              crashes and recovers. *)
           let clock_a = Clock.create () in
           let dev_a = Striped.create () in
           let a = Store.format ~dev:dev_a ~clock:clock_a in
           let oid = Store.alloc_oid a in
           List.iter
             (fun pages ->
               ignore (Store.begin_checkpoint a);
               Store.put_object a ~oid ~kind:"memory" ~meta:"delta";
               Store.put_pages a ~oid
                 (List.map (fun (idx, c) -> (idx, payload c)) pages);
               ignore (Store.commit_checkpoint a))
             epochs_spec;
           Store.wait_durable a;
           let model = Hashtbl.create 64 in
           List.iter
             (List.iter (fun (idx, c) -> Hashtbl.replace model idx c))
             epochs_spec;
           let full = Hashtbl.fold (fun idx c acc -> (idx, payload c) :: acc) model [] in
           let _clock_b, _dev_b, b = fresh () in
           Store.set_content_dedup b false;
           Store.set_compression b false;
           let oid_b = Store.alloc_oid b in
           let eb = Store.begin_checkpoint b in
           Store.put_object b ~oid:oid_b ~kind:"memory" ~meta:"full";
           Store.put_pages b ~oid:oid_b full;
           ignore (Store.commit_checkpoint b);
           Store.wait_durable b;
           let ea = Store.last_complete_epoch a in
           let pages_of st ~epoch ~oid = Store.read_pages st ~epoch ~oid in
           let want = pages_of b ~epoch:eb ~oid:oid_b in
           let ok_live = pages_of a ~epoch:ea ~oid = want in
           Striped.crash dev_a ~now:(Clock.now clock_a);
           let ra = Store.recover ~dev:dev_a ~clock:(Clock.create ()) in
           ok_live
           && pages_of ra ~epoch:ea ~oid = want
           && Store.content_index_consistent ra));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"store round-trips random page sets over epochs" ~count:40
         QCheck.(
           list_of_size (Gen.int_range 1 6)
             (list_of_size (Gen.int_range 0 20) (pair (int_range 0 600) printable_char)))
         (fun epochs_spec ->
           let _clock, _dev, store = fresh () in
           let oid = Store.alloc_oid store in
           (* Model: latest content per page index. *)
           let model = Hashtbl.create 64 in
           let ok = ref true in
           List.iter
             (fun pages ->
               let e = Store.begin_checkpoint store in
               Store.put_object store ~oid ~kind:"memory" ~meta:"";
               Store.put_pages store ~oid
                 (List.map (fun (idx, c) -> (idx, payload c)) pages);
               ignore (Store.commit_checkpoint store);
               List.iter (fun (idx, c) -> Hashtbl.replace model idx c) pages;
               Hashtbl.iter
                 (fun idx c ->
                   match Store.read_page store ~epoch:e ~oid ~idx with
                   | Some data -> if data <> payload c then ok := false
                   | None -> ok := false)
                 model)
             epochs_spec;
           !ok));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"recovery equals pre-crash durable state" ~count:30
         QCheck.(list_of_size (Gen.int_range 1 8) (string_of_size (Gen.int_range 1 50)))
         (fun metas ->
           let clock = Clock.create () in
           let dev = Striped.create () in
           let store = Store.format ~dev ~clock in
           let oid = Store.alloc_oid store in
           List.iter
             (fun meta ->
               ignore (Store.begin_checkpoint store);
               Store.put_object store ~oid ~kind:"blob" ~meta;
               ignore (Store.commit_checkpoint store))
             metas;
           Store.wait_durable store;
           let last = Store.last_complete_epoch store in
           Striped.crash dev ~now:(Clock.now clock);
           let store2 = Store.recover ~dev ~clock in
           Store.last_complete_epoch store2 = last
           && Store.read_meta store2 ~epoch:last ~oid = List.nth metas (List.length metas - 1)));
  ]

let () =
  Alcotest.run "aurora_objstore"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "short read" `Quick test_wire_short_read_raises;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "incremental COW" `Quick test_incremental_cow;
          Alcotest.test_case "carry forward" `Quick test_unchanged_object_carries_forward;
          Alcotest.test_case "double begin" `Quick test_double_begin_rejected;
          Alcotest.test_case "put_pages newest wins" `Quick test_put_pages_newest_wins;
          Alcotest.test_case "history time travel" `Quick test_history_is_time_travel;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "clean shutdown" `Quick test_recovery_after_clean_shutdown;
          Alcotest.test_case "crash mid-checkpoint" `Quick test_crash_mid_checkpoint_keeps_previous;
          Alcotest.test_case "crash before first" `Quick test_crash_before_any_checkpoint;
          Alcotest.test_case "uninitialized device" `Quick test_recover_uninitialized_device_fails;
          Alcotest.test_case "read retry absorbs transients" `Quick
            test_read_retry_absorbs_transients;
        ] );
      ( "journal",
        [
          Alcotest.test_case "append and scan" `Quick test_journal_append_and_scan;
          Alcotest.test_case "truncate" `Quick test_journal_truncate;
          Alcotest.test_case "crash survival" `Quick test_journal_survives_crash;
          Alcotest.test_case "timing anchor" `Quick test_journal_timing_anchor;
        ] );
      ("history", [ Alcotest.test_case "prune frees blocks" `Quick test_prune_history_frees_blocks ]);
      ( "boundaries",
        [
          Alcotest.test_case "leaf span" `Quick test_leaf_span_boundaries;
          Alcotest.test_case "full leaf" `Quick test_full_leaf_fits_a_block;
          Alcotest.test_case "many objects" `Quick test_many_objects_one_checkpoint;
          Alcotest.test_case "journal generations" `Quick test_journal_generation_isolation;
          Alcotest.test_case "prune/crash/recover" `Quick test_prune_then_crash_recover;
          Alcotest.test_case "streamed commit: metadata, then pages" `Quick
            test_streamed_commit_metadata_then_pages;
        ] );
      ("properties", qcheck_tests);
    ]
