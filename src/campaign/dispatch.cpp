#include "campaign/dispatch.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace adaptviz {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::string sanitize_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// Worker scratch dirs live under the output dir as `.tmp-<label>-<pid>`;
/// a killed worker leaves one behind, so the coordinator sweeps them.
void remove_scratch_dirs(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(".tmp-", 0) == 0) std::filesystem::remove_all(e.path(), ec);
  }
}

/// Writes of task lines to a dead worker must come back as EPIPE, not a
/// process-killing signal.
class SigpipeIgnore {
 public:
  SigpipeIgnore() {
    struct sigaction sa {};
    sa.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &sa, &old_);
  }
  ~SigpipeIgnore() { sigaction(SIGPIPE, &old_, nullptr); }
  SigpipeIgnore(const SigpipeIgnore&) = delete;
  SigpipeIgnore& operator=(const SigpipeIgnore&) = delete;

 private:
  struct sigaction old_ {};
};

struct WorkerProc {
  pid_t pid = -1;
  int to_fd = -1;    // coordinator -> worker stdin
  int from_fd = -1;  // worker stdout -> coordinator
  std::string buffer;
  bool alive = false;
  bool hello = false;
  bool busy = false;
  bool straggler_flagged = false;
  std::size_t task = 0;
  Clock::time_point dispatched_at{};
};

struct PendingTask {
  std::size_t index = 0;
  Clock::time_point ready_at{};
};

class Coordinator {
 public:
  Coordinator(std::vector<std::string> worker_command, DispatchOptions options,
              std::string campaign_path)
      : worker_command_(std::move(worker_command)),
        options_(std::move(options)),
        campaign_path_(std::move(campaign_path)),
        jitter_rng_(options_.seed) {}

  ~Coordinator() {
    // Exception path: never leak children.
    for (WorkerProc& w : workers_) kill_worker(w);
  }

  DispatchResult run() {
    const CampaignSpec spec = load_campaign(campaign_path_);
    runs_ = spec.expand();
    const std::size_t n = runs_.size();
    records_.resize(n);
    done_.assign(n, 0);
    attempts_.assign(n, 0);

    std::filesystem::create_directories(options_.output_dir);
    remove_scratch_dirs(options_.output_dir);
    manifest_path_ =
        options_.output_dir + "/" + CampaignManifest::filename();
    load_or_reset_manifest(spec, n);

    for (std::size_t i = 0; i < n; ++i) {
      if (!done_[i]) pending_.push_back(PendingTask{i, Clock::now()});
    }

    if (!pending_.empty()) {
      SigpipeIgnore sigpipe_guard;
      int target = options_.workers > 0 ? options_.workers : spec.workers;
      if (target <= 0) target = 1;
      target_workers_ = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(target), pending_.size()));
      for (int i = 0; i < target_workers_; ++i) {
        spawn_worker(i == options_.crash_inject_worker);
      }
      if (alive_count() == 0) {
        throw std::runtime_error("dispatch: could not spawn any worker");
      }
      event_loop();
      shutdown_workers();
    }

    finalize();
    DispatchResult result;
    result.records = std::move(records_);
    result.resumed = resumed_;
    result.executed = executed_;
    result.metrics = obs_.metrics().snapshot();
    return result;
  }

 private:
  // ---- resume ----

  void load_or_reset_manifest(const CampaignSpec& spec, std::size_t n) {
    if (options_.resume) {
      if (auto loaded = CampaignManifest::load(manifest_path_);
          loaded.has_value() && loaded->campaign == spec.name &&
          loaded->grid == n) {
        manifest_ = std::move(*loaded);
        for (const auto& [index, entry] : manifest_.entries) {
          if (index >= n) continue;
          if (entry.record.failed) continue;  // failed rows always re-run
          if (entry.record.label != runs_[index].label) continue;
          if (!entry_output_intact(entry, options_.output_dir)) continue;
          records_[index] = entry.record;
          done_[index] = 1;
          ++done_count_;
          ++resumed_;
        }
        if (resumed_ > 0) {
          obs_.metrics().counter("dispatch.runs_resumed").add(
              static_cast<std::int64_t>(resumed_));
          log(LogLevel::kInfo, "dispatch", "resume: %zu of %zu runs intact",
              resumed_, n);
        }
      }
    }
    manifest_.campaign = spec.name;
    manifest_.grid = n;
  }

  // ---- worker lifecycle ----

  void spawn_worker(bool crash_flag) {
    std::vector<std::string> argv_strings = worker_command_;
    argv_strings.push_back("--worker");
    argv_strings.push_back(campaign_path_);
    argv_strings.push_back(options_.output_dir);
    if (!options_.write_per_run_csvs) {
      argv_strings.push_back("--no-per-run-csvs");
    }
    if (options_.verbose_workers) argv_strings.push_back("--verbose");
    if (crash_flag) argv_strings.push_back("--crash-next-task");

    int to_pipe[2] = {-1, -1};
    int from_pipe[2] = {-1, -1};
    if (pipe(to_pipe) != 0 || pipe(from_pipe) != 0) {
      if (to_pipe[0] >= 0) {
        close(to_pipe[0]);
        close(to_pipe[1]);
      }
      log(LogLevel::kError, "dispatch", "pipe() failed: %s", strerror(errno));
      return;
    }

    const pid_t pid = fork();
    if (pid < 0) {
      close(to_pipe[0]);
      close(to_pipe[1]);
      close(from_pipe[0]);
      close(from_pipe[1]);
      log(LogLevel::kError, "dispatch", "fork() failed: %s", strerror(errno));
      return;
    }
    if (pid == 0) {
      // Child: wire the protocol pipes to stdin/stdout; stderr is
      // inherited so per-run log lines (labelled via the run context)
      // land on the coordinator's terminal.
      dup2(to_pipe[0], STDIN_FILENO);
      dup2(from_pipe[1], STDOUT_FILENO);
      close(to_pipe[0]);
      close(to_pipe[1]);
      close(from_pipe[0]);
      close(from_pipe[1]);
      std::vector<char*> argv;
      argv.reserve(argv_strings.size() + 1);
      for (std::string& s : argv_strings) argv.push_back(s.data());
      argv.push_back(nullptr);
      // execvp: the coordinator binary may have been invoked as a bare
      // command (argv[0] with no slash), which needs the PATH search.
      execvp(argv[0], argv.data());
      _exit(127);
    }

    close(to_pipe[0]);
    close(from_pipe[1]);
    fcntl(from_pipe[0], F_SETFL, O_NONBLOCK);

    WorkerProc w;
    w.pid = pid;
    w.to_fd = to_pipe[1];
    w.from_fd = from_pipe[0];
    w.alive = true;
    workers_.push_back(w);
    obs_.metrics().counter("dispatch.workers_spawned").add(1);
  }

  [[nodiscard]] int alive_count() const {
    int n = 0;
    for (const WorkerProc& w : workers_) n += w.alive ? 1 : 0;
    return n;
  }

  void kill_worker(WorkerProc& w) {
    if (!w.alive) return;
    kill(w.pid, SIGKILL);
    reap_worker(w);
  }

  void reap_worker(WorkerProc& w) {
    if (!w.alive) return;
    w.alive = false;
    if (w.to_fd >= 0) close(w.to_fd);
    if (w.from_fd >= 0) close(w.from_fd);
    w.to_fd = w.from_fd = -1;
    int status = 0;
    waitpid(w.pid, &status, 0);
  }

  /// A worker died or broke protocol: reap it, requeue its in-flight
  /// task, and spawn a replacement from the budget.
  void on_worker_failed(WorkerProc& w, const char* reason) {
    if (!w.alive) return;
    log(LogLevel::kWarn, "dispatch", "worker pid %d lost (%s)",
        static_cast<int>(w.pid), reason);
    reap_worker(w);
    obs_.metrics().counter("dispatch.worker_failures").add(1);
    if (w.busy) {
      const std::size_t task = w.task;
      w.busy = false;
      if (!done_[task]) requeue_or_fail(task);
    }
    maybe_respawn();
  }

  void maybe_respawn() {
    const std::size_t open_tasks = pending_.size() + in_flight_count();
    const int target = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(target_workers_), std::max<std::size_t>(
            open_tasks, 1)));
    while (alive_count() < target &&
           respawns_used_ < options_.worker_respawn_budget) {
      ++respawns_used_;
      spawn_worker(/*crash_flag=*/false);
    }
  }

  [[nodiscard]] std::size_t in_flight_count() const {
    std::size_t n = 0;
    for (const WorkerProc& w : workers_) {
      n += (w.alive && w.busy && !done_[w.task]) ? 1 : 0;
    }
    return n;
  }

  // ---- task scheduling ----

  /// Returns false when the TASK write failed (the worker is reaped; a
  /// non-straggler task is requeued — the index must never be lost, or
  /// done_count_ can never reach the grid size and the loop hangs).
  bool send_task(WorkerProc& w, std::size_t index, bool straggler) {
    const std::string line = "TASK " + std::to_string(index) + "\n";
    ssize_t written =
        write(w.to_fd, line.data(), static_cast<std::size_t>(line.size()));
    if (written != static_cast<ssize_t>(line.size())) {
      // w.busy is still false here, so on_worker_failed's requeue path
      // does not cover this task.
      on_worker_failed(w, "task write failed");
      if (!straggler) requeue_or_fail(index);
      return false;
    }
    if (attempts_[index] > 0) {
      obs_.metrics().counter("dispatch.tasks_redispatched").add(1);
    }
    if (straggler) {
      obs_.metrics().counter("dispatch.straggler_redispatched").add(1);
    } else {
      ++attempts_[index];
    }
    obs_.metrics().counter("dispatch.tasks_dispatched").add(1);
    w.busy = true;
    w.straggler_flagged = false;
    w.task = index;
    w.dispatched_at = Clock::now();
    return true;
  }

  /// Hands every ready pending task (lowest grid index first) to an idle
  /// worker that has completed its HELLO.
  void dispatch_ready() {
    const Clock::time_point now = Clock::now();
    while (true) {
      std::size_t best = pending_.size();
      for (std::size_t p = 0; p < pending_.size(); ++p) {
        if (pending_[p].ready_at > now) continue;
        if (best == pending_.size() ||
            pending_[p].index < pending_[best].index) {
          best = p;
        }
      }
      if (best == pending_.size()) return;
      WorkerProc* idle = nullptr;
      for (WorkerProc& w : workers_) {
        if (w.alive && w.hello && !w.busy) {
          idle = &w;
          break;
        }
      }
      if (idle == nullptr) return;
      const std::size_t index = pending_[best].index;
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
      send_task(*idle, index, /*straggler=*/false);
    }
  }

  /// A task in flight past the straggler timeout is duplicated onto an
  /// idle worker; the exactly-once accounting drops whichever ROW loses.
  void dispatch_stragglers() {
    if (options_.straggler_timeout_s <= 0.0) return;
    const Clock::time_point now = Clock::now();
    for (WorkerProc& slow : workers_) {
      if (!slow.alive || !slow.busy || slow.straggler_flagged) continue;
      if (done_[slow.task]) continue;
      if (seconds_between(slow.dispatched_at, now) <
          options_.straggler_timeout_s) {
        continue;
      }
      WorkerProc* idle = nullptr;
      for (WorkerProc& w : workers_) {
        if (&w != &slow && w.alive && w.hello && !w.busy) {
          idle = &w;
          break;
        }
      }
      if (idle == nullptr) return;
      // send_task counts the re-dispatch (attempts_ > 0 for any
      // straggler); counting here too would double it. Leave the flag
      // clear on a failed send so a later pass can try another worker.
      if (send_task(*idle, slow.task, /*straggler=*/true)) {
        slow.straggler_flagged = true;
      }
    }
  }

  void requeue_or_fail(std::size_t index) {
    if (done_[index]) return;
    if (attempts_[index] >= options_.max_task_attempts) {
      CampaignRunRecord rec = make_run_record(runs_[index]);
      rec.failed = true;
      rec.error = "dispatch: worker crashed (" +
                  std::to_string(attempts_[index]) + " attempts)";
      obs_.metrics().counter("dispatch.tasks_failed").add(1);
      complete(index, std::move(rec), {});
      return;
    }
    // The transport backoff ladder; jitter decorrelates N re-dispatches.
    const double delay =
        backoff(options_.retry, attempts_[index], jitter_rng_).seconds();
    pending_.push_back(PendingTask{
        index, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(delay))});
  }

  void fail_all_remaining(const char* reason) {
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (done_[i]) continue;
      CampaignRunRecord rec = make_run_record(runs_[i]);
      rec.failed = true;
      rec.error = std::string("dispatch: ") + reason;
      obs_.metrics().counter("dispatch.tasks_failed").add(1);
      complete(i, std::move(rec), {});
    }
    pending_.clear();
  }

  /// Marks `index` terminally done — exactly once, whether via a worker
  /// ROW or a coordinator-side failure row — persisting the manifest and
  /// firing progress.
  void complete(std::size_t index, CampaignRunRecord rec,
                std::vector<FileStamp> files) {
    records_[index] = std::move(rec);
    done_[index] = 1;
    ++done_count_;
    ++executed_;
    ManifestEntry entry;
    entry.index = index;
    entry.record = records_[index];
    entry.files = std::move(files);
    manifest_.upsert(std::move(entry));
    manifest_.save(manifest_path_);
    if (options_.on_progress) {
      CampaignProgress progress;
      progress.finished = done_count_;
      progress.total = runs_.size();
      progress.record = &records_[index];
      options_.on_progress(progress);
    }
  }

  // ---- protocol ----

  void handle_line(WorkerProc& w, const std::string& line) {
    if (line.rfind("HELLO ", 0) == 0) {
      const std::size_t at = line.find("grid=");
      const auto grid =
          at == std::string::npos
              ? std::nullopt
              : wire::parse_int(std::string_view(line).substr(at + 5));
      if (grid != static_cast<std::int64_t>(runs_.size())) {
        throw std::runtime_error(
            "dispatch: worker expanded a different grid (" + line + " vs " +
            std::to_string(runs_.size()) + " runs) — campaign file drift");
      }
      w.hello = true;
      return;
    }
    if (line.rfind("ROW ", 0) == 0) {
      ManifestEntry entry;
      try {
        entry = decode_manifest_entry(line.substr(4));
      } catch (const std::exception& e) {
        kill(w.pid, SIGKILL);
        on_worker_failed(w, e.what());
        return;
      }
      if (w.busy && w.task == entry.index) {
        obs_.metrics()
            .histogram("dispatch.task_latency_s")
            .observe(seconds_between(w.dispatched_at, Clock::now()));
        w.busy = false;
      }
      if (entry.index >= runs_.size() || done_[entry.index]) {
        obs_.metrics().counter("dispatch.duplicate_rows").add(1);
        return;
      }
      obs_.metrics().counter("dispatch.tasks_completed").add(1);
      complete(entry.index, entry.record, std::move(entry.files));
      return;
    }
    if (line.rfind("ERR ", 0) == 0) {
      kill(w.pid, SIGKILL);
      on_worker_failed(w, line.c_str());
      return;
    }
    kill(w.pid, SIGKILL);
    on_worker_failed(w, "unexpected protocol line");
  }

  /// Drains a worker's pipe; returns false when the worker hit EOF.
  bool read_worker(WorkerProc& w) {
    char chunk[4096];
    while (true) {
      const ssize_t n = read(w.from_fd, chunk, sizeof chunk);
      if (n > 0) {
        w.buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = w.buffer.find('\n')) != std::string::npos) {
          std::string line = w.buffer.substr(0, nl);
          w.buffer.erase(0, nl + 1);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          if (!line.empty()) handle_line(w, line);
          if (!w.alive) return false;  // handle_line may have reaped it
        }
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  // ---- event loop ----

  [[nodiscard]] int poll_timeout_ms() const {
    const Clock::time_point now = Clock::now();
    double timeout = 0.5;  // heartbeat: bounded staleness for respawns
    bool has_idle = false;
    for (const WorkerProc& w : workers_) {
      has_idle = has_idle || (w.alive && w.hello && !w.busy);
    }
    // Pending backoff deadlines only matter when a worker could take the
    // task; with every worker busy, waking early would just spin.
    if (has_idle) {
      for (const PendingTask& p : pending_) {
        timeout =
            std::min(timeout, std::max(0.0, seconds_between(now, p.ready_at)));
      }
    }
    if (options_.straggler_timeout_s > 0.0) {
      for (const WorkerProc& w : workers_) {
        if (!w.alive || !w.busy) continue;
        const double left = options_.straggler_timeout_s -
                            seconds_between(w.dispatched_at, now);
        timeout = std::min(timeout, std::max(0.0, left));
      }
    }
    return std::max(10, static_cast<int>(timeout * 1000.0));
  }

  void event_loop() {
    while (done_count_ < runs_.size()) {
      maybe_respawn();
      if (alive_count() == 0) {
        fail_all_remaining("worker respawn budget exhausted");
        return;
      }
      dispatch_ready();
      dispatch_stragglers();
      if (done_count_ == runs_.size()) return;

      std::vector<pollfd> fds;
      std::vector<WorkerProc*> owners;
      for (WorkerProc& w : workers_) {
        if (!w.alive) continue;
        fds.push_back(pollfd{w.from_fd, POLLIN, 0});
        owners.push_back(&w);
      }
      const int ready = poll(fds.data(), fds.size(), poll_timeout_ms());
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("dispatch: poll() failed: ") +
                                 strerror(errno));
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        WorkerProc& w = *owners[i];
        if (!w.alive) continue;
        if (!read_worker(w)) on_worker_failed(w, "eof");
      }
    }
  }

  void shutdown_workers() {
    for (WorkerProc& w : workers_) {
      if (!w.alive) continue;
      if (w.busy) {
        // Only duplicate runners are still busy once every task is done;
        // their result is no longer needed.
        kill_worker(w);
        continue;
      }
      const char exit_line[] = "EXIT\n";
      [[maybe_unused]] ssize_t n =
          write(w.to_fd, exit_line, sizeof exit_line - 1);
      reap_worker(w);
    }
  }

  // ---- finish ----

  void finalize() {
    remove_scratch_dirs(options_.output_dir);
    manifest_.save(manifest_path_);
    if (options_.write_summary_csv) {
      write_campaign_summary(records_, options_.output_dir);
    }
    if (options_.write_metrics_json) {
      obs::save_json(options_.output_dir + "/dispatch_metrics.json",
                     obs_.metrics().snapshot(), {});
    }
  }

  std::vector<std::string> worker_command_;
  DispatchOptions options_;
  std::string campaign_path_;
  std::string manifest_path_;
  Rng jitter_rng_;

  std::vector<CampaignRun> runs_;
  std::vector<CampaignRunRecord> records_;
  std::vector<char> done_;
  std::vector<int> attempts_;
  std::vector<PendingTask> pending_;
  // deque: spawn_worker push_back must not invalidate WorkerProc
  // references held across respawns in the event loop.
  std::deque<WorkerProc> workers_;
  CampaignManifest manifest_;
  obs::Observability obs_;

  std::size_t done_count_ = 0;
  std::size_t resumed_ = 0;
  std::size_t executed_ = 0;
  int target_workers_ = 0;
  int respawns_used_ = 0;
};

}  // namespace

CampaignDispatcher::CampaignDispatcher(std::vector<std::string> worker_command,
                                       DispatchOptions options)
    : worker_command_(std::move(worker_command)),
      options_(std::move(options)) {
  if (worker_command_.empty()) {
    throw std::invalid_argument("dispatch: worker command must be non-empty");
  }
}

DispatchResult CampaignDispatcher::run(const std::string& campaign_path) {
  Coordinator coordinator(worker_command_, options_, campaign_path);
  return coordinator.run();
}

// ---- worker side ----

int run_dispatch_worker(const WorkerOptions& options, std::istream& in,
                        std::ostream& out) {
  try {
    const CampaignSpec spec = load_campaign(options.campaign_path);
    const std::vector<CampaignRun> runs = spec.expand();
    std::filesystem::create_directories(options.output_dir);
    out << "HELLO v1 grid=" << runs.size() << "\n" << std::flush;

    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line == "EXIT") return 0;
      if (line.rfind("TASK ", 0) != 0) {
        out << "ERR unknown command " << sanitize_line(line) << "\n"
            << std::flush;
        return 2;
      }
      const auto parsed = wire::parse_int(std::string_view(line).substr(5));
      if (!parsed || *parsed < 0 ||
          static_cast<std::size_t>(*parsed) >= runs.size()) {
        out << "ERR bad task index " << sanitize_line(line) << "\n"
            << std::flush;
        return 2;
      }
      if (options.crash_next_task) {
        // Test hook: die the way a crashed worker dies — no unwind, no
        // ROW, pipe snaps shut.
        std::_Exit(42);
      }
      const auto index = static_cast<std::size_t>(*parsed);

      ManifestEntry entry;
      entry.index = index;
      const std::string& label = runs[index].label;
      entry.record = execute_campaign_run(
          runs[index], options.run_log_level,
          [&](const ExperimentResult& result) {
            if (!options.write_per_run_csvs) return;
            // Write into a private scratch dir, then rename each file
            // into place: a worker killed mid-write (or racing a
            // straggler duplicate) can never leave a truncated CSV
            // under a real result name. The pid suffix keeps a
            // straggler duplicate and the original worker from sharing
            // (and remove_all-ing) each other's staging directory.
            const std::string scratch = options.output_dir + "/.tmp-" +
                                        label + "-" +
                                        std::to_string(getpid());
            std::filesystem::remove_all(scratch);
            write_result(result, scratch);
            for (const auto& e :
                 std::filesystem::directory_iterator(scratch)) {
              std::filesystem::rename(
                  e.path(), options.output_dir + "/" +
                                e.path().filename().string());
            }
            std::filesystem::remove_all(scratch);
          });
      if (!entry.record.failed && options.write_per_run_csvs) {
        entry.files = stamp_result_files(label, options.output_dir);
      }
      out << "ROW " << encode_manifest_entry(entry) << "\n" << std::flush;
    }
    return 0;  // EOF from the coordinator is a valid shutdown
  } catch (const std::exception& e) {
    out << "ERR " << sanitize_line(e.what()) << "\n" << std::flush;
    return 2;
  }
}

}  // namespace adaptviz
