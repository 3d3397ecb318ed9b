(* Pruned-transformer weight generators (S4.3.2).

   Block pruning (Lagunas et al.): whole 32x32 blocks survive; surviving
   blocks cluster on a subset of block rows so many block rows are entirely
   empty — the property DBSR exploits (Figure 17).

   Movement pruning (Sanh et al.): unstructured, but weight magnitudes
   correlate within columns, so t x 1 column vectors capture most non-zeros —
   the property SR-BCRS exploits (Figures 18-19). *)

open Formats

(* Block-pruned weight matrix: keep approximately [density] of the blocks,
   with [zero_row_frac] of the block rows forced empty (clustered pruning). *)
let block_pruned ?(seed = 5) ~(rows : int) ~(cols : int) ~(block : int)
    ~(density : float) ?(zero_row_frac = 0.4) () : Csr.t =
  let g = Rng.create seed in
  let rows_b = rows / block and cols_b = cols / block in
  let live_rows =
    Array.init rows_b (fun _ -> Rng.float g >= zero_row_frac)
  in
  (* concentrate the global block density on live rows *)
  let live_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 live_rows in
  let live_density =
    if live_count = 0 then 0.0
    else
      Float.min 1.0 (density *. float_of_int rows_b /. float_of_int live_count)
  in
  let entries = ref [] in
  for bi = rows_b - 1 downto 0 do
    if live_rows.(bi) then
      for bj = cols_b - 1 downto 0 do
        if Rng.float g < live_density then
          (* fill the whole block with non-zero values *)
          for ii = block - 1 downto 0 do
            for jj = block - 1 downto 0 do
              entries :=
                ((bi * block) + ii, (bj * block) + jj, (Rng.float g *. 2.0) -. 1.0)
                :: !entries
            done
          done
      done
  done;
  Csr.of_coo { Coo.rows; cols; entries = Array.of_list !entries }

(* Movement-pruned weight matrix: element-level sparsity with column-vector
   correlation: a fraction of t x 1 column segments carries most surviving
   weights. *)
let movement_pruned ?(seed = 9) ~(rows : int) ~(cols : int)
    ~(density : float) ?(tile = 8) ?(tile_fill = 0.7) () : Csr.t =
  let g = Rng.create seed in
  let strips = (rows + tile - 1) / tile in
  (* probability that a t x 1 tile is active, given that active tiles carry
     [tile_fill] of their elements *)
  let tile_density = Float.min 1.0 (density /. tile_fill) in
  let entries = ref [] in
  for s = 0 to strips - 1 do
    for j = 0 to cols - 1 do
      if Rng.float g < tile_density then
        for r = 0 to tile - 1 do
          let i = (s * tile) + r in
          if i < rows && Rng.float g < tile_fill then
            entries := (i, j, (Rng.float g *. 2.0) -. 1.0) :: !entries
        done
    done
  done;
  Csr.of_coo { Coo.rows; cols; entries = Array.of_list !entries }

(* Dense input activations [in_features x seq_len]. *)
let activations ?(seed = 21) ~(in_features : int) ~(seq_len : int) () : Dense.t
    =
  Dense.random ~seed in_features seq_len
