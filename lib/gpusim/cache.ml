(* Set-associative LRU cache simulator.  Addresses are byte addresses in a
   flat simulated address space; one cache instance serves the L2, and one
   instance per SM serves the L1s.  Used to produce the L1/L2 hit rates of
   Figure 12 and the DRAM traffic term of the kernel cost model.

   Storage grows with the sets a run touches: a set's ways are placed in
   the store on the set's first access.  The store is an array of
   fixed-size int chunks, so growing it copies nothing.  Chunks are large
   enough to be allocated in the major heap, and neither they nor the set
   index hold pointers, so a minor collection never copies a run's cache
   state, during the run or after it. *)

type t = {
  sets : int;
  assoc : int;
  line : int;
  mutable index : int array;
      (* per set: 1 + its position in the store, 0 until the set is first
         touched; empty until the cache is *)
  mutable chunks : int array array;
      (* the store: each placed set's [assoc] tags (-1 = invalid), then
         its [assoc] LRU stamps *)
  mutable placed : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

(* Sets per store chunk: a chunk of at least 512 words is too large for
   the minor heap. *)
let chunk_sets (c : t) = max 1 (512 / (2 * c.assoc))

let create ~bytes ~line ~assoc : t =
  { sets = max 1 (bytes / (line * assoc));
    assoc;
    line;
    index = [||];
    chunks = [||];
    placed = 0;
    clock = 0;
    hits = 0;
    misses = 0 }

(* Position of [set] in the store, placing its ways on first touch. *)
let position (c : t) (set : int) : int =
  if Array.length c.index = 0 then c.index <- Array.make c.sets 0;
  let p = c.index.(set) in
  if p > 0 then p - 1
  else begin
    let p = c.placed and per = chunk_sets c in
    if p mod per = 0 then begin
      let chunk = Array.make (per * 2 * c.assoc) 0 in
      for s = 0 to per - 1 do
        Array.fill chunk (s * 2 * c.assoc) c.assoc (-1)
      done;
      c.chunks <- Array.append c.chunks [| chunk |]
    end;
    c.placed <- p + 1;
    c.index.(set) <- p + 1;
    p
  end

(* Touch one line by id, counting the hit or miss. *)
let touch (c : t) (line_id : int) : unit =
  let p = position c (line_id mod c.sets) and per = chunk_sets c in
  let w = c.chunks.(p / per) and base = p mod per * 2 * c.assoc in
  let assoc = c.assoc in
  c.clock <- c.clock + 1;
  let way = ref 0 in
  while !way < assoc && w.(base + !way) <> line_id do incr way done;
  if !way < assoc then begin
    w.(base + assoc + !way) <- c.clock;
    c.hits <- c.hits + 1
  end
  else begin
    c.misses <- c.misses + 1;
    (* evict the LRU way *)
    let victim = ref 0 in
    for v = 1 to assoc - 1 do
      if w.(base + assoc + v) < w.(base + assoc + !victim) then victim := v
    done;
    w.(base + !victim) <- line_id;
    w.(base + assoc + !victim) <- c.clock
  end

(* Access one cache line by address; returns true on hit. *)
let access_line (c : t) (addr : int) : bool =
  let h = c.hits in
  touch c (addr / c.line);
  c.hits > h

(* Touch every line of [bytes] bytes starting at [addr]. *)
let touch_range (c : t) ~(addr : int) ~(bytes : int) : unit =
  for l = addr / c.line to (addr + max 1 bytes - 1) / c.line do
    touch c l
  done

(* Strided run: [count] accesses of [bytes] bytes each, starting at [base]
   with byte stride [stride].  The lines it hits and misses are added to
   [hits] and [misses]. *)
let run (c : t) ~(base : int) ~(stride : int) ~(count : int) ~(bytes : int) :
    unit =
  if stride = 0 then touch_range c ~addr:base ~bytes
  else if abs stride <= c.line && bytes <= abs stride then begin
    (* dense sweep: walk line by line over the covered range *)
    let total = (abs stride * (count - 1)) + bytes in
    let start = if stride > 0 then base else base + (stride * (count - 1)) in
    touch_range c ~addr:start ~bytes:total
  end
  else
    for i = 0 to count - 1 do
      touch_range c ~addr:(base + (i * stride)) ~bytes
    done

let access_run (c : t) ~(base : int) ~(stride : int) ~(count : int)
    ~(bytes : int) : int * int =
  let h = c.hits and m = c.misses in
  run c ~base ~stride ~count ~bytes;
  (c.hits - h, c.misses - m)
