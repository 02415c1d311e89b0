(* Structure-specialized min-sum message kernels.  See kernel.mli for
   the contract and DESIGN.md ("Message kernels") for the classification
   rules and the bitwise-equivalence argument. *)

external ( .%() ) : floatarray -> int -> float = "%floatarray_safe_get"

external ( .%()<- ) : floatarray -> int -> float -> unit
  = "%floatarray_safe_set"

type t =
  | Potts of { off : float; diag : float array }
  | Const_sparse of {
      base : float;
      nnz : int;
      max_line_nnz : int;
      col_idx : int array array;
      col_val : float array array;
      row_idx : int array array;
      row_val : float array array;
    }
  | Generic

let kind_name = function
  | Potts _ -> "potts"
  | Const_sparse _ -> "const-sparse"
  | Generic -> "generic"

(* A table qualifies as constant-plus-sparse only when the specialized
   update clearly beats the O(ku*kv) scan in BOTH orientations: the
   selection pass costs k_src*(max_line_nnz+1) and the deviation pass
   costs the line's nnz, so demand a 2x margin on the dense bound. *)
let sparse_pays ~ku ~kv ~max_line_nnz ~nnz =
  (max ku kv * (max_line_nnz + 2)) + nnz <= ku * kv / 2

let classify ~ku ~kv tab =
  if ku < 1 || kv < 1 || Array.length tab <> ku * kv then Generic
  else if not (Array.for_all Float.is_finite tab) then
    (* keep NaN/inf propagation semantics on the generic path *)
    Generic
  else begin
    let potts =
      if ku <> kv then None
      else if ku = 1 then Some (Potts { off = tab.(0); diag = [| tab.(0) |] })
      else begin
        let off = tab.(1) in
        let uniform = ref true in
        for i = 0 to ku - 1 do
          for j = 0 to kv - 1 do
            if i <> j && tab.((i * kv) + j) <> off then uniform := false
          done
        done;
        if !uniform then
          Some
            (Potts
               { off; diag = Array.init ku (fun i -> tab.((i * kv) + i)) })
        else None
      end
    in
    match potts with
    | Some p -> p
    | None ->
        (* modal entry = candidate base value *)
        let sorted = Array.copy tab in
        Array.sort compare sorted;
        let base = ref sorted.(0) and best_run = ref 1 and run = ref 1 in
        for i = 1 to Array.length sorted - 1 do
          if sorted.(i) = sorted.(i - 1) then incr run else run := 1;
          if !run > !best_run then begin
            best_run := !run;
            base := sorted.(i)
          end
        done;
        let base = !base in
        let row_nnz = Array.make ku 0 and col_nnz = Array.make kv 0 in
        let nnz = ref 0 in
        for i = 0 to ku - 1 do
          for j = 0 to kv - 1 do
            if tab.((i * kv) + j) <> base then begin
              incr nnz;
              row_nnz.(i) <- row_nnz.(i) + 1;
              col_nnz.(j) <- col_nnz.(j) + 1
            end
          done
        done;
        let nnz = !nnz in
        let max_line_nnz =
          max
            (Array.fold_left max 0 row_nnz)
            (Array.fold_left max 0 col_nnz)
        in
        if not (sparse_pays ~ku ~kv ~max_line_nnz ~nnz) then Generic
        else begin
          let col_idx = Array.map (fun c -> Array.make c 0) col_nnz in
          let col_val = Array.map (fun c -> Array.make c 0.0) col_nnz in
          let row_idx = Array.map (fun c -> Array.make c 0) row_nnz in
          let row_val = Array.map (fun c -> Array.make c 0.0) row_nnz in
          let ccur = Array.make kv 0 and rcur = Array.make ku 0 in
          for i = 0 to ku - 1 do
            for j = 0 to kv - 1 do
              let v = tab.((i * kv) + j) in
              if v <> base then begin
                col_idx.(j).(ccur.(j)) <- i;
                col_val.(j).(ccur.(j)) <- v;
                ccur.(j) <- ccur.(j) + 1;
                row_idx.(i).(rcur.(i)) <- j;
                row_val.(i).(rcur.(i)) <- v;
                rcur.(i) <- rcur.(i) + 1
              end
            done
          done;
          Const_sparse
            { base; nnz; max_line_nnz; col_idx; col_val; row_idx; row_val }
        end
  end

type scratch = {
  h : floatarray;
  fresh : floatarray;
  sel_v : floatarray;
  sel_i : int array;
}

let make_scratch ~max_labels =
  let k = max 1 max_labels in
  {
    h = Float.Array.make k 0.0;
    fresh = Float.Array.make k 0.0;
    sel_v = Float.Array.make (k + 1) infinity;
    sel_i = Array.make (k + 1) (-1);
  }

let update cls ~pot ~p0 ~src_is_u ~k_src ~k_out ~scratch ~out ~out_off =
  let h = scratch.h in
  match cls with
  | Potts { off; diag } ->
      (* min and second-min of h; each output label needs the min over
         the OTHER labels, which is m0 unless the argmin is itself *)
      let m0 = ref infinity and m1 = ref infinity and arg0 = ref (-1) in
      for x = 0 to k_src - 1 do
        let v = h.%(x) in
        if v < !m0 then begin
          m1 := !m0;
          m0 := v;
          arg0 := x
        end
        else if v < !m1 then m1 := v
      done;
      let vmin = ref infinity in
      for xo = 0 to k_out - 1 do
        let excl = if xo = !arg0 then !m1 else !m0 in
        let same = h.%(xo) +. diag.(xo) in
        let other = excl +. off in
        let c = if same < other then same else other in
        out.%(out_off + xo) <- c;
        if c < !vmin then vmin := c
      done;
      !vmin
  | Const_sparse { base; max_line_nnz; col_idx; col_val; row_idx; row_val; _ }
    ->
      let idx, vals =
        if src_is_u then (col_idx, col_val) else (row_idx, row_val)
      in
      (* keep the (max_line_nnz + 1) smallest h values: every output line
         deviates in at most max_line_nnz sources, so at least one kept
         index pays the base value *)
      let keep = min (max_line_nnz + 1) k_src in
      let sv = scratch.sel_v and si = scratch.sel_i in
      for t = 0 to keep - 1 do
        sv.%(t) <- infinity;
        si.(t) <- -1
      done;
      for x = 0 to k_src - 1 do
        let v = h.%(x) in
        if v < sv.%(keep - 1) then begin
          let t = ref (keep - 1) in
          while !t > 0 && sv.%(!t - 1) > v do
            sv.%(!t) <- sv.%(!t - 1);
            si.(!t) <- si.(!t - 1);
            decr t
          done;
          sv.%(!t) <- v;
          si.(!t) <- x
        end
      done;
      let vmin = ref infinity in
      for xo = 0 to k_out - 1 do
        let di = idx.(xo) and dv = vals.(xo) in
        let nd = Array.length di in
        (* cheapest source whose entry is the base value *)
        let plain = ref infinity in
        let t = ref 0 and found = ref false in
        while (not !found) && !t < keep do
          let s = si.(!t) in
          let dev = ref false in
          for d = 0 to nd - 1 do
            if di.(d) = s then dev := true
          done;
          if not !dev then begin
            plain := sv.%(!t);
            found := true
          end;
          incr t
        done;
        let best = ref (!plain +. base) in
        for d = 0 to nd - 1 do
          let c = h.%(di.(d)) +. dv.(d) in
          if c < !best then best := c
        done;
        out.%(out_off + xo) <- !best;
        if !best < !vmin then vmin := !best
      done;
      !vmin
  | Generic ->
      let vmin = ref infinity in
      for xo = 0 to k_out - 1 do
        let best = ref infinity in
        if src_is_u then
          for xs = 0 to k_src - 1 do
            let c = h.%(xs) +. pot.(p0 + (xs * k_out) + xo) in
            if c < !best then best := c
          done
        else begin
          let r0 = p0 + (xo * k_src) in
          for xs = 0 to k_src - 1 do
            let c = h.%(xs) +. pot.(r0 + xs) in
            if c < !best then best := c
          done
        end;
        out.%(out_off + xo) <- !best;
        if !best < !vmin then vmin := !best
      done;
      !vmin
