// Process-wide work-stealing task executor: the substrate for morsel-driven
// parallel kernels (bat/kernels.h) and dataflow plan execution
// (mal::Interpreter::Execute with workers > 1). One fixed pool of worker threads serves
// every concurrent query session on the ring, so parallel queries share
// cores instead of oversubscribing the machine with per-query thread pools
// (the paper's §4.1 "concurrent interpreter threads" on a shared engine).
//
// Design:
//  - `workers` primary threads, each with its own LIFO deque. External
//    Submit() lands in a global injection queue; a worker prefers its own
//    deque (cache-hot morsels), then the injection queue, then steals the
//    oldest task of a sibling.
//  - A matching set of *reserve* threads parks until a task announces it is
//    about to block (Executor::BlockingScope around `datacyclotron.pin`
//    stalls). While k tasks sit in blocking sections, k reserves run the
//    normal worker loop so runnable morsels are never starved by a pinned
//    plan. All threads are created once in the constructor: steady-state
//    query traffic creates zero threads (see ExecutorMetrics).
//  - ParallelFor() is the morsel driver: the *calling* thread claims morsels
//    from an atomic cursor alongside helper tasks submitted to the pool, so
//    a saturated executor degrades to sequential execution on the caller
//    instead of deadlocking (nested parallelism is safe for the same
//    reason).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dcy::exec {

/// \brief Tuning knobs for the morsel-driven parallel kernels. Process-wide
/// (see GetExecPolicy/SetExecPolicy); RingCluster::Options and the bench
/// --workers/--morsel_rows flags feed it.
struct ExecPolicy {
  /// Max threads cooperating on one kernel (caller included).
  /// 0 = all executor workers; 1 = force the sequential path.
  size_t workers = 0;
  /// Rows per morsel (the stealing granule).
  size_t morsel_rows = 64 * 1024;
  /// Inputs below this row count take the sequential kernel unchanged, so
  /// small BATs pay zero parallelism overhead.
  size_t min_parallel_rows = 128 * 1024;
  /// Radix partitions for the parallel hash-table build
  /// (bat::kernels::PartitionedTable). 0 derives the count from the
  /// effective worker count; 1 forces the sequential single-table build.
  /// The build rounds the value down to a power of two and keeps
  /// partitions coarse relative to morsel_rows.
  size_t join_partitions = 0;
};

/// Reads/replaces the process-wide kernel policy (atomic snapshot).
ExecPolicy GetExecPolicy();
void SetExecPolicy(const ExecPolicy& policy);

/// RAII policy override for tests and benches (restores on destruction).
class ScopedExecPolicy {
 public:
  explicit ScopedExecPolicy(const ExecPolicy& policy) : saved_(GetExecPolicy()) {
    SetExecPolicy(policy);
  }
  ~ScopedExecPolicy() { SetExecPolicy(saved_); }
  ScopedExecPolicy(const ScopedExecPolicy&) = delete;
  ScopedExecPolicy& operator=(const ScopedExecPolicy&) = delete;

 private:
  ExecPolicy saved_;
};

/// \brief Lifetime counters (monotonic). `threads_created` must stay flat
/// under steady-state query traffic — asserted in runtime_test.
struct ExecutorMetrics {
  uint64_t threads_created = 0;  ///< OS threads ever spawned by the executor
  uint64_t tasks_executed = 0;   ///< tasks + morsel batches run to completion
  uint64_t tasks_stolen = 0;     ///< tasks taken from a sibling's deque
  uint64_t blocking_sections = 0;  ///< BlockingScope entries
};

class Executor {
 public:
  using Task = std::function<void()>;

  /// `workers` primary threads (0 = hardware concurrency, min 1). The same
  /// number of reserve threads is created parked.
  explicit Executor(size_t workers = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor every subsystem shares. Created on first use;
  /// lives until process exit.
  static Executor& Default();

  /// Enqueues `task`. Every submitted task is invoked exactly once: tasks
  /// still queued at destruction run inline on the destructing thread, so
  /// completion bookkeeping (latches, counters) never strands a waiter.
  void Submit(Task task);

  /// Morsel-driven parallel loop: splits [0, n) into `grain`-sized morsels
  /// and runs `body(begin, end)` for each, cooperatively on the calling
  /// thread plus up to `max_workers - 1` pool helpers (0 = all workers).
  /// Returns after every morsel completed. Safe to call from inside a task
  /// (nested) and from non-pool threads; with max_workers <= 1 it runs
  /// sequentially inline.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t begin, size_t end)>& body,
                   size_t max_workers = 0);

  /// \brief Announces that the current task is about to block on an external
  /// event (e.g. a ring pin future). While any scope is open, parked reserve
  /// threads take over the blocked capacity so runnable tasks keep flowing.
  class BlockingScope {
   public:
    explicit BlockingScope(Executor& e = Executor::Default());
    ~BlockingScope();
    BlockingScope(const BlockingScope&) = delete;
    BlockingScope& operator=(const BlockingScope&) = delete;

   private:
    Executor& executor_;
  };

  size_t workers() const { return num_workers_; }
  ExecutorMetrics metrics() const;

  // (see also exec::PartitionedReduce below — the map/reduce companion of
  // ParallelFor for kernels that merge per-partition partials.)

 private:
  struct WorkerState {
    std::mutex mu;
    std::deque<Task> deque;  // back = newest (owner pops back, thieves pop front)
  };

  void WorkerLoop(size_t index, bool reserve);
  /// Pops/steals one task; false when nothing is runnable right now.
  bool AcquireTask(size_t index, Task* out);
  /// Pushes to the current worker's deque when called from a pool thread,
  /// else to the injection queue; wakes a sleeper.
  void Push(Task task);

  size_t num_workers_ = 0;
  std::vector<std::unique_ptr<WorkerState>> states_;  // primaries only
  std::vector<std::thread> threads_;                  // primaries + reserves

  std::mutex mu_;  ///< guards injection_, sleep/wake, stop_
  std::condition_variable cv_;
  std::deque<Task> injection_;
  bool stop_ = false;
  size_t sleepers_ = 0;

  std::atomic<size_t> pending_{0};  ///< queued tasks across all queues
  std::atomic<size_t> blocked_{0};  ///< open BlockingScopes
  std::atomic<uint64_t> threads_created_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> tasks_stolen_{0};
  std::atomic<uint64_t> blocking_sections_{0};
};

/// Partitioned map/reduce on the shared executor: `map(p)` computes
/// partition p's partial result (a morsel of a kernel, a radix partition of
/// a hash build) in parallel — the caller participates, so a saturated pool
/// degrades to sequential execution — then `reduce(acc, partial)` folds the
/// partials into `init` on the calling thread in ascending partition order.
/// The deterministic fold order is the point: floating-point merges
/// associate identically for a fixed partition count, and order-carrying
/// merges (duplicate chains, morsel stitches) always see partition 0 first.
/// T must be default-constructible and movable.
template <typename T, typename MapFn, typename ReduceFn>
T PartitionedReduce(size_t parts, T init, const MapFn& map, const ReduceFn& reduce,
                    size_t max_workers = 0) {
  if (parts == 0) return init;
  if (parts == 1 || max_workers == 1) {
    for (size_t p = 0; p < parts; ++p) {
      T partial = map(p);
      reduce(init, partial);
    }
    return init;
  }
  std::vector<T> partials(parts);
  Executor::Default().ParallelFor(
      parts, 1,
      [&](size_t begin, size_t end) {
        for (size_t p = begin; p < end; ++p) partials[p] = map(p);
      },
      max_workers);
  for (T& partial : partials) reduce(init, partial);
  return init;
}

}  // namespace dcy::exec
