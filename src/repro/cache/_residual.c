/* Compiled residual loops for the batched simulation kernel.
 *
 * This file is deliberately a *plain* C shared library — no Python.h —
 * so it can be built lazily with nothing but a C compiler and loaded
 * through ctypes (see repro/cache/native.py).  It mirrors, operation
 * for operation, the two pure-python residual loops in
 * repro/cache/kernel.py:
 *
 *   repro_residual_timed   <->  the merged I/D residual loop inside
 *                               run_batched (tag probe, victim pick,
 *                               interval records, stall accrual)
 *   repro_residual_access  <->  BatchedCacheKernel.access_blocks'
 *                               residual loop (times are inputs)
 *
 * Everything that involves unbounded python state stays in python and
 * is reached through callbacks: the L2 walk + compulsory-miss set on a
 * miss, and the live random-policy rng on a random eviction.  That is
 * what keeps the compiled path bit-identical to the scalar oracle —
 * the rng draws the same MT19937 stream, the L2 keeps its own exact
 * statistics — while the per-event arithmetic runs at C speed.
 *
 * All integers are int64 (block numbers, cycle counts and frame
 * indices all fit comfortably); python floor-division semantics are
 * reproduced exactly where the stall formula needs them.
 */

#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

/* (lane_id, block, now) -> bit0: L2 hit, bit1: block already seen.   */
typedef i64 (*repro_miss_cb)(i64, i64, i64);
/* (lane_id, set_index) -> victim way, drawn from the live python rng. */
typedef i64 (*repro_rng_cb)(i64, i64);
/* (lane_id, block) -> 1 if already seen (recording it otherwise).     */
typedef i64 (*repro_seen_cb)(i64, i64);

/* One cache lane's folded state (aliases numpy int64 arrays that the
 * python wrapper snapshots from the scalar cache's lists and writes
 * back afterwards).  lru_touch / fifo_next are NULL when the lane's
 * replacement policy is not LRU / FIFO respectively; a lane with both
 * NULL is random-replacement and evicts through the rng callback. */
typedef struct {
    i64 lane_id;        /* 0 = instruction lane, 1 = data lane */
    i64 assoc;
    i64 start_time;
    i64 *tags;          /* n_lines */
    i64 *frame_last;    /* n_lines */
    i64 *lru_touch;     /* n_lines, or NULL */
    i64 *fifo_next;     /* n_sets,  or NULL */
    i64 *set_last_frame;/* n_sets  */
    /* Per-lane outputs (preallocated by the wrapper). */
    i64 *rec_keys;
    i64 *rec_gaps;
    u8  *rec_kinds;
    i64 rec_n;          /* records emitted (gap > 0) */
    i64 hits;
    i64 misses;
    i64 compulsory;
    i64 evictions;
} repro_lane;

typedef struct {
    i64 invalid_tag;
    i64 kind_normal;
    i64 kind_cold;
    i64 kind_dead;
    i64 l1i_hit;
    i64 l1d_hit;
    i64 l2_hit;
    i64 memory_latency;
    i64 stall_on_miss;
    i64 load_mlp;
    i64 store_buffer;
    i64 chunk_start_stalls;
} repro_cfg;

/* Python's floor division, exact for every sign combination. */
static i64 repro_floordiv(i64 a, i64 b)
{
    i64 q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

/* bisect_left over the (non-decreasing) stall position records. */
static i64 repro_bisect_left(const i64 *arr, i64 n, i64 value)
{
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (arr[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Close the fast run a residual event ends: the run's final access
 * time lands on the replacement and tracker state before the event
 * touches the set.  (run_frame >= 0 always holds when a catch-up is
 * requested — a fast run can only continue from a frame some earlier
 * residual event placed — the guard just keeps a corrupt input from
 * scribbling out of bounds.) */
static void repro_catch_up(repro_lane *lane, i64 set_index, i64 run_time)
{
    i64 run_frame = lane->set_last_frame[set_index];
    if (run_frame < 0)
        return;
    lane->frame_last[run_frame] = run_time;
    if (lane->lru_touch)
        lane->lru_touch[run_frame] = run_time;
}

/* Probe the set for `block`; returns the way or -1. */
static i64 repro_probe(const repro_lane *lane, i64 base, i64 block)
{
    i64 c;
    for (c = 0; c < lane->assoc; c++)
        if (lane->tags[base + c] == block)
            return c;
    return -1;
}

/* Pick the victim way for a fill (first invalid way, else policy). */
static i64 repro_victim(repro_lane *lane, i64 base, i64 set_index,
                        i64 invalid_tag, repro_rng_cb rng_cb)
{
    i64 c;
    for (c = 0; c < lane->assoc; c++)
        if (lane->tags[base + c] == invalid_tag)
            return c;
    /* No invalid way: a real eviction. */
    if (lane->lru_touch) {
        i64 best = lane->lru_touch[base];
        i64 victim = 0;
        for (c = 1; c < lane->assoc; c++) {
            if (lane->lru_touch[base + c] < best) {
                best = lane->lru_touch[base + c];
                victim = c;
            }
        }
        lane->evictions += 1;
        return victim;
    }
    if (lane->fifo_next) {
        i64 victim = lane->fifo_next[set_index];
        lane->fifo_next[set_index] = (victim + 1) % lane->assoc;
        lane->evictions += 1;
        return victim;
    }
    lane->evictions += 1;
    return rng_cb(lane->lane_id, set_index);
}

static void repro_record(repro_lane *lane, i64 key, i64 gap, u8 kind)
{
    if (gap > 0) {
        lane->rec_keys[lane->rec_n] = key;
        lane->rec_gaps[lane->rec_n] = gap;
        lane->rec_kinds[lane->rec_n] = kind;
        lane->rec_n += 1;
    }
}

/* The merged I/D residual loop of run_batched.  Returns the cumulative
 * stall count after the chunk; stall records land in stall_positions /
 * stall_totals with *n_stalls_out entries. */
i64 repro_residual_timed(
    i64 n,
    const i64 *m_pos, const u8 *m_is_d, const i64 *m_block,
    const i64 *m_set, const i64 *m_catch, const i64 *m_base,
    const i64 *m_cbase, const u8 *m_store,
    repro_lane *lane_i, repro_lane *lane_d,
    const repro_cfg *cfg,
    repro_miss_cb miss_cb, repro_rng_cb rng_cb,
    i64 *stall_positions, i64 *stall_totals, i64 *n_stalls_out)
{
    i64 stalls = cfg->chunk_start_stalls;
    i64 current_pos = -1;
    i64 stalls_at_pos = stalls;
    i64 n_stalls = 0;
    i64 e;

    for (e = 0; e < n; e++) {
        i64 pos = m_pos[e];
        i64 block = m_block[e];
        i64 set_index = m_set[e];
        i64 catch_pos = m_catch[e];
        int is_d = m_is_d[e] != 0;
        repro_lane *lane = is_d ? lane_d : lane_i;
        i64 base, way, frame, now;

        if (pos != current_pos) {
            current_pos = pos;
            stalls_at_pos = stalls;
        }
        now = m_base[e] + stalls_at_pos;

        if (catch_pos >= 0) {
            i64 record = repro_bisect_left(stall_positions, n_stalls, catch_pos);
            i64 run_time = m_cbase[e] + (record ? stall_totals[record - 1]
                                                : cfg->chunk_start_stalls);
            repro_catch_up(lane, set_index, run_time);
        }

        base = set_index * lane->assoc;
        way = repro_probe(lane, base, block);
        if (way >= 0) {
            lane->hits += 1;
            frame = base + way;
            repro_record(lane, pos, now - lane->frame_last[frame],
                         (u8)cfg->kind_normal);
        } else {
            i64 probe, latency, last;
            lane->misses += 1;
            probe = miss_cb(lane->lane_id, block, now);
            if (!(probe & 2))
                lane->compulsory += 1;
            frame = base + repro_victim(lane, base, set_index,
                                        cfg->invalid_tag, rng_cb);
            lane->tags[frame] = block;
            last = lane->frame_last[frame];
            if (last == -1)
                repro_record(lane, pos, now - lane->start_time,
                             (u8)cfg->kind_cold);
            else
                repro_record(lane, pos, now - last, (u8)cfg->kind_dead);
            /* The miss walks the L2; its latency stalls the stream. */
            latency = (probe & 1) ? cfg->l2_hit : cfg->memory_latency;
            if (is_d) {
                if (!(m_store[e] && cfg->store_buffer)) {
                    i64 extra = -repro_floordiv(
                        -(latency - cfg->l1d_hit), cfg->load_mlp);
                    if (cfg->stall_on_miss && extra) {
                        stalls += extra;
                        stall_positions[n_stalls] = pos;
                        stall_totals[n_stalls] = stalls;
                        n_stalls += 1;
                    }
                }
            } else {
                i64 extra = latency - cfg->l1i_hit;
                if (cfg->stall_on_miss && extra) {
                    stalls += extra;
                    stall_positions[n_stalls] = pos;
                    stall_totals[n_stalls] = stalls;
                    n_stalls += 1;
                }
            }
        }
        if (lane->lru_touch)
            lane->lru_touch[frame] = now;
        lane->frame_last[frame] = now;
        lane->set_last_frame[set_index] = frame;
    }
    *n_stalls_out = n_stalls;
    return stalls;
}

/* The residual loop of BatchedCacheKernel.access_blocks: access times
 * are inputs here, so there is no stall bookkeeping and no L2 walk —
 * only the seen-set callback on a miss and the rng on a random
 * eviction.  hit_out[k] is set to 1 when residual event k hit. */
void repro_residual_access(
    i64 n_res,
    const i64 *res_event, const i64 *res_block, const i64 *res_set,
    const i64 *res_catch, const i64 *times,
    repro_lane *lane, const repro_cfg *cfg,
    repro_seen_cb seen_cb, repro_rng_cb rng_cb,
    u8 *hit_out)
{
    i64 k;
    for (k = 0; k < n_res; k++) {
        i64 event = res_event[k];
        i64 block = res_block[k];
        i64 set_index = res_set[k];
        i64 catch_pos = res_catch[k];
        i64 now = times[event];
        i64 base, way, frame;

        if (catch_pos >= 0)
            repro_catch_up(lane, set_index, times[catch_pos]);

        base = set_index * lane->assoc;
        way = repro_probe(lane, base, block);
        if (way >= 0) {
            lane->hits += 1;
            hit_out[k] = 1;
            frame = base + way;
            repro_record(lane, event, now - lane->frame_last[frame],
                         (u8)cfg->kind_normal);
        } else {
            i64 last;
            lane->misses += 1;
            if (!seen_cb(lane->lane_id, block))
                lane->compulsory += 1;
            frame = base + repro_victim(lane, base, set_index,
                                        cfg->invalid_tag, rng_cb);
            lane->tags[frame] = block;
            last = lane->frame_last[frame];
            if (last == -1)
                repro_record(lane, event, now - lane->start_time,
                             (u8)cfg->kind_cold);
            else
                repro_record(lane, event, now - last, (u8)cfg->kind_dead);
        }
        if (lane->lru_touch)
            lane->lru_touch[frame] = now;
        lane->frame_last[frame] = now;
        lane->set_last_frame[set_index] = frame;
    }
}

/* ABI version stamp so the loader can reject a stale cached build. */
i64 repro_residual_abi(void)
{
    return 2;
}
