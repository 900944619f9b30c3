// The serve_exact workload: the projection daemon as serve_daemon runs it
// by default (2 workers, exact tier, surrogate off) behind an AF_UNIX
// serve::SocketServer in this process, fed by an open-loop generator.
//
// The generator is one thread driving two connections. It sends request
// i at its due time t0 + i / rate whatever happened to earlier requests
// (independent users), reads replies as they arrive, and charges each
// request the time from its due time to its reply. It polls without ever
// sleeping, so its own wake-ups are not charged to the daemon. The rate
// sits far below the 2-worker knee so queueing cannot amplify host noise;
// see README.md for the measured p99 at 1x and 2x the rate.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>

#include "bench.h"
#include "exec/sweep_request.h"
#include "generators.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/socket_server.h"
#include "setup.h"
#include "stats.h"
#include "traced_job.h"
#include "util/jsonl.h"
#include "util/logging.h"

namespace perfbench {

namespace {

using namespace grophecy;

constexpr double kSloMs = 5.0;           ///< Latency limit of slo_ratio.
constexpr double kMaxLagMs = 2.5;        ///< Generator lag tail validity.
constexpr int kConnections = 2;
/// Cold set-ups per run: the first kSetupsBefore before the load (the
/// last one serves it), the rest after it, so the median samples the
/// host at both ends of the run.
constexpr std::size_t kSetupRepeats = 21;
constexpr std::size_t kSetupsBefore = 11;
/// The traced run alternates untraced and traced windows of requests.
constexpr std::size_t kTraceWindows = 10;
/// Latency tails are taken per window of this many requests: the p95, the
/// highest percentile with 10 samples beyond it. Host stalls delay 1-3% of
/// requests on a busy shared host, so p98 and p99 windows measure the
/// host's stalls, not the daemon (README.md, "Serve knee").
constexpr std::size_t kTailWindow = 200;
constexpr int kPings = 1000;             ///< Closed-loop pings (traced).
constexpr double kStatsPeriodS = 0.005;  ///< stats() sampling (traced).
/// Span ids: requests use their index, daemon executions start here.
constexpr std::uint64_t kJobIdBase = 1ULL << 32;
constexpr std::uint64_t kPingId = (1ULL << 32) - 1;
constexpr std::uint64_t kCodecId = (1ULL << 32) - 2;
/// A request unanswered this long after the last due time fails the run.
constexpr double kDrainTimeoutS = 30.0;

const std::vector<std::string> kMachines{"anl_eureka", "pcie3_kepler",
                                         "ampere_a100"};

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// A blocking AF_UNIX line connection the generator reads without
/// blocking (after poll says so).
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect(" + path + ") failed");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void send_line(const std::string& line) {
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to daemon failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available and appends every complete line to `lines`.
  /// Returns false when the daemon closed the connection.
  bool read_lines(std::vector<std::string>& lines) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    if (n == 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl; (nl = buffer_.find('\n', begin)) != std::string::npos;
         begin = nl + 1)
      lines.emplace_back(buffer_, begin, nl - begin);
    buffer_.erase(0, begin);
    return true;
  }

  /// Request/reply, waiting for the reply without sleeping, as the
  /// generator does (set-up warm-up and pings only).
  std::string request(const std::string& line) {
    send_line(line);
    const double give_up = now_s() + 10.0;
    std::vector<std::string> lines;
    while (lines.empty()) {
      pollfd p{fd_, POLLIN, 0};
      const int ready = ::poll(&p, 1, 0);
      if (ready < 0 || (ready == 0 && now_s() > give_up))
        throw std::runtime_error("daemon did not answer " + line);
      if (ready > 0 && !read_lines(lines))
        throw std::runtime_error("daemon hung up");
    }
    return lines.front();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The daemon, its socket server and the generator's connections.
struct Deployment {
  std::unique_ptr<serve::Daemon> daemon;
  std::unique_ptr<serve::SocketServer> server;
  std::vector<std::unique_ptr<Connection>> connections;

  ~Deployment() {
    connections.clear();
    if (server) server->stop();
    if (daemon) daemon->shutdown();
  }
};

std::string request_line(std::size_t id, const exec::JobSpec& spec) {
  util::FlatJson request;
  request.emplace_back("id", std::to_string(id));
  request.emplace_back("type", std::string("project"));
  request.emplace_back("workload", spec.workload);
  request.emplace_back("size", spec.size_label);
  request.emplace_back("iterations", static_cast<double>(spec.iterations));
  request.emplace_back("machine", spec.machine);
  return util::write_flat_json(request);
}

struct Expected {
  core::ProjectionReport report;
  bool ok = false;
};

/// Matches a reply's scalars against the in-process result.
bool reply_matches(const util::FlatJson& reply, const Expected& expected) {
  if (!expected.ok) return false;
  if (util::json_string(reply, "status").value_or("") != "ok") return false;
  if (util::json_string(reply, "machine").value_or("") !=
      expected.report.machine_name)
    return false;
  const core::ProjectionReport& r = expected.report;
  const std::pair<const char*, double> fields[] = {
      {"predicted_kernel_s", r.predicted_kernel_s},
      {"predicted_transfer_s", r.predicted_transfer_s},
      {"measured_kernel_s", r.measured_kernel_s},
      {"measured_transfer_s", r.measured_transfer_s},
      {"measured_cpu_s", r.measured_cpu_s}};
  for (const auto& [key, value] : fields) {
    const std::optional<double> got = util::json_number(reply, key);
    if (!got || !(*got == value)) return false;
  }
  return true;
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome outcome;
  util::set_log_level(util::LogLevel::kError);
  const std::string socket_path =
      args.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  // --- inputs from the seed ---
  const std::uint64_t base_seed = derive_seed(args.seed, 0);
  const std::vector<exec::JobSpec> population = serve_population(kMachines);
  const std::size_t n =
      static_cast<std::size_t>(std::lround(args.serve_rate * args.seconds));
  const std::vector<std::size_t> mix =
      uniform_mix(args.seed, population.size(), n);
  const std::size_t trace_window = std::max<std::size_t>(n / kTraceWindows, 1);
  std::vector<std::string> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    lines.push_back(request_line(i, population[mix[i]]));

  // --- daemon options; the traced run wraps the job function: while
  // `tracing` is on it runs the traced pipeline, and it records every
  // execution's spec and times either way ---
  struct Execution {
    std::string key;
    double start_s = 0.0;
    double end_s = 0.0;
    bool traced = false;
  };
  TraceStore store;
  LayerCounters counters;
  counters.next_id = kJobIdBase;
  std::atomic<bool> tracing{false};
  std::mutex executions_mutex;
  std::vector<Execution> executions;  // Guarded by executions_mutex.
  serve::DaemonOptions options;
  options.base_seed = base_seed;
  if (args.trace) {
    const exec::SweepEngine::JobFn canonical =
        exec::SweepRequest::on(options.machine)
            .options(options.projection)
            .seed(base_seed)
            .job_fn();
    const exec::SweepEngine::JobFn traced = traced_job_fn(
        options.machine, options.projection, base_seed, store, counters);
    options.job_fn = [canonical, traced, &tracing, &executions,
                      &executions_mutex](const exec::JobSpec& spec) {
      const bool on = tracing.load(std::memory_order_relaxed);
      const double start = now_s();
      core::ProjectionReport report = on ? traced(spec) : canonical(spec);
      const double end = now_s();
      std::lock_guard<std::mutex> lock(executions_mutex);
      executions.push_back({spec.key(), start, end, on});
      return report;
    };
  }

  // --- set-up, repeated from cold ---
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> deployment;
  const auto set_up = [&]() {
    deployment.reset();
    clear_process_caches(/*artifacts=*/true);
    SetupTimes times;
    double start = now_s();
    load_registry();
    times.registry_s = now_s() - start;
    start = now_s();
    calibrate_machines(kMachines, options.projection, base_seed);
    times.calibrate_s = now_s() - start;
    start = now_s();
    fill_grid_caches(population);
    times.grid_s = now_s() - start;
    start = now_s();
    deployment = std::make_unique<Deployment>();
    deployment->daemon = std::make_unique<serve::Daemon>(options);
    deployment->daemon->start();
    deployment->server = std::make_unique<serve::SocketServer>(
        *deployment->daemon, serve::SocketServerOptions{socket_path});
    deployment->server->start();
    for (int c = 0; c < kConnections; ++c) {
      deployment->connections.push_back(
          std::make_unique<Connection>(socket_path));
      Connection& connection = *deployment->connections.back();
      connection.request(R"({"id":"warm-ping","type":"ping"})");
      for (const std::string& machine : kMachines)
        connection.request(request_line(
            0, {"HotSpot", "64 x 64", 1, machine}));
    }
    times.other_s = now_s() - start;
    setups.push_back(times);
  };
  for (std::size_t k = 0; k < kSetupsBefore; ++k) set_up();
  // The remaining set-ups, once the load and everything that uses the
  // serving deployment are done.
  const auto finish_setups = [&]() {
    while (setups.size() < kSetupRepeats) set_up();
    deployment.reset();
    return summarize(setups);
  };

  // --- expected results, computed in-process with the caches bypassed ---
  const exec::SweepEngine::JobFn reference =
      exec::SweepRequest::on(options.machine)
          .options(reference_options(options.projection))
          .seed(base_seed)
          .job_fn();
  std::map<std::size_t, Expected> expected;
  for (std::size_t index : mix) {
    if (expected.count(index)) continue;
    Expected& e = expected[index];
    try {
      e.report = reference(population[index]);
      e.ok = true;
    } catch (const std::exception& error) {
      outcome.problems.push_back(std::string("reference failed: ") +
                                 error.what());
    }
  }

  // --- the open-loop load ---
  serve::Daemon& daemon = *deployment->daemon;
  {
    std::lock_guard<std::mutex> lock(executions_mutex);
    executions.clear();  // set-up warm-up requests
  }
  const CacheCounts caches_before = CacheCounts::now();
  std::vector<Connection*> connections;
  for (auto& c : deployment->connections) connections.push_back(c.get());
  std::vector<double> due(n), sent(n), replied(n, -1.0);
  std::vector<std::pair<double, std::string>> replies;
  replies.reserve(n);
  std::vector<double> depth_samples;
  const serve::DaemonStats stats_before = daemon.stats();
  const double t0 = now_s() + 0.01;
  for (std::size_t i = 0; i < n; ++i)
    due[i] = t0 + static_cast<double>(i) / args.serve_rate;
  const double give_up = due.back() + kDrainTimeoutS;
  double next_sample = t0;
  std::size_t next = 0;
  std::vector<std::string> batch;
  std::vector<pollfd> fds;
  for (Connection* c : connections) fds.push_back({c->fd(), POLLIN, 0});
  bool hung_up = false;
  while (replies.size() < n && !hung_up) {
    double now = now_s();
    if (now > give_up) break;
    while (next < n && now >= due[next]) {
      if (args.trace) tracing = (next / trace_window) % 2 == 1;
      connections[next % kConnections]->send_line(lines[next]);
      sent[next] = now_s();
      ++next;
      now = now_s();
    }
    if (args.trace && now >= next_sample) {
      depth_samples.push_back(static_cast<double>(daemon.stats().queue_depth));
      next_sample += kStatsPeriodS;
    }
    // The generator never sleeps: waking a sleeping thread costs tens of
    // microseconds on a busy host, which would be charged to every reply
    // it reads and every send it makes.
    const timespec no_wait{0, 0};
    if (::ppoll(fds.data(), fds.size(), &no_wait, nullptr) <= 0) continue;
    const double arrival = now_s();
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      batch.clear();
      if (!connections[c]->read_lines(batch)) hung_up = true;
      for (std::string& line : batch)
        replies.emplace_back(arrival, std::move(line));
    }
  }
  tracing = false;
  const serve::DaemonStats stats_after = daemon.stats();
  CacheCounts load_caches;
  load_caches.add_delta(caches_before, CacheCounts::now());

  // --- match replies to requests and verify them ---
  std::size_t ok = 0, verified = 0, within_slo = 0;
  double last_reply = t0;
  std::set<std::size_t> verified_specs;
  std::size_t traced_mismatches = 0;
  for (const auto& [arrival, line] : replies) {
    const std::optional<util::FlatJson> reply = util::parse_flat_json(line);
    const std::string id =
        reply ? util::json_string(*reply, "id").value_or("") : "";
    char* end = nullptr;
    const unsigned long long index = std::strtoull(id.c_str(), &end, 10);
    if (id.empty() || *end != '\0' || index >= n || replied[index] >= 0.0) {
      outcome.problems.push_back("unexpected reply: " + line.substr(0, 120));
      continue;
    }
    replied[index] = arrival;
    last_reply = std::max(last_reply, arrival);
    const Expected& e = expected[mix[index]];
    if (util::json_string(*reply, "status").value_or("") == "ok") ++ok;
    else ++outcome.failed;
    if (reply_matches(*reply, e)) {
      ++verified;
      verified_specs.insert(mix[index]);
      if ((arrival - due[index]) * 1e3 <= kSloMs) ++within_slo;
    } else if (index / trace_window % 2 == 1 && args.trace) {
      ++traced_mismatches;
    }
  }
  outcome.attempted = n;
  std::size_t unanswered = 0;
  for (double t : replied) unanswered += t < 0.0;
  if (unanswered > 0) {
    outcome.problems.push_back(std::to_string(unanswered) +
                               " requests got no reply");
    outcome.failed += unanswered;
  }
  if (verified != n)
    outcome.problems.push_back(std::to_string(n - verified) + " of " +
                               std::to_string(n) +
                               " replies differ from the in-process result");

  std::vector<double> answered_due, answered_at, lag_ms;
  for (std::size_t i = 0; i < n; ++i) {
    if (replied[i] >= 0.0) {
      answered_due.push_back(due[i]);
      answered_at.push_back(replied[i]);
    }
    if (i < next) lag_ms.push_back((sent[i] - due[i]) * 1e3);
  }
  std::vector<double> latency_ms =
      open_loop_latencies(answered_due, answered_at);
  for (double& latency : latency_ms) latency *= 1e3;
  if (latency_ms.size() <= 10 || lag_ms.size() <= 10)
    throw std::runtime_error("serve_exact: too few replies to measure");
  const double lag_tail = windowed_tail(lag_ms, kTailWindow);
  if (lag_tail > kMaxLagMs)
    outcome.problems.push_back(
        "invalid run: the generator fell behind its schedule (lag tail " +
        std::to_string(lag_tail) + " ms > " + std::to_string(kMaxLagMs) +
        " ms); the latencies measure the host, not the daemon");
  const double jobs_per_s = static_cast<double>(ok) / (last_reply - t0);
  // The accuracy figure is taken over the distinct projections served, so
  // how often the mix repeats a spec does not weight it.
  double error_sum = 0.0;
  for (std::size_t index : verified_specs) {
    const core::ProjectionReport& r = expected[index].report;
    error_sum += 100.0 *
                 std::fabs(r.predicted_total_s() - r.measured_total_s()) /
                 r.measured_total_s();
  }
  const double mean_error =
      verified_specs.empty()
          ? 0.0
          : error_sum / static_cast<double>(verified_specs.size());
  std::fprintf(stderr,
               "serve_exact: %zu requests at %.0f/s (%.1f%% repeat an earlier "
               "spec), %.0f ok/s, p50 %.3f ms, tail %.3f ms, lag tail %.3f "
               "ms, %zu verified\n",
               n, args.serve_rate, 100.0 * repeat_share(mix), jobs_per_s,
               median(latency_ms), windowed_tail(latency_ms, kTailWindow),
               lag_tail, verified);

  if (!args.trace) {
    const SetupSummary setup = finish_setups();
    std::fprintf(stderr, "setup %.3f ms (median of %zu)\n",
                 setup.total_s * 1e3, setups.size());
    outcome.add("setup_s", setup.total_s, "s");
    outcome.add("jobs_per_s", jobs_per_s, "1/s");
    outcome.add("latency_p50_ms", median(latency_ms), "ms");
    outcome.add("latency_tail_ms", windowed_tail(latency_ms, kTailWindow),
                "ms");
    outcome.add("slo_ratio",
                static_cast<double>(within_slo) / static_cast<double>(n),
                "ratio");
    outcome.add("ok_ratio",
                static_cast<double>(verified) / static_cast<double>(n),
                "ratio");
    outcome.add("model_err_pct", mean_error, "%");
    outcome.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return outcome;
  }
  // --- per-layer metrics (traced run) ---
  if (traced_mismatches > 0)
    outcome.problems.push_back(
        "reconciliation: " + std::to_string(traced_mismatches) +
        " replies of traced executions differ from Grophecy::project");
  for (std::size_t i = 0; i < n; ++i) {
    if (replied[i] < 0.0) continue;
    JobTrace request(i);
    request.add("serve.request", std::llround(sent[i] * 1e9),
                std::llround(replied[i] * 1e9));
    store.append(request);
  }

  // The wire, parse and admission floor: closed-loop pings, no work.
  std::vector<double> ping_us;
  {
    JobTrace pings(kPingId);
    for (int i = 0; i < kPings; ++i) {
      const std::int64_t start = now_ns();
      connections[0]->request(R"({"id":"ping","type":"ping"})");
      const std::int64_t end = now_ns();
      pings.add("serve.ping", start, end);
      ping_us.push_back(static_cast<double>(end - start) * 1e-3);
    }
    store.append(pings);
  }

  // Benchmark-side parse and render of the same lines and results.
  std::vector<const core::ProjectionReport*> reports;
  for (std::size_t i = 0; i < n; ++i)
    reports.push_back(&expected[mix[i]].report);
  volatile std::size_t sink = 0;  // keeps the loops' results observable
  JobTrace codec(kCodecId);
  std::int32_t span = codec.open("serve.parse");
  for (const std::string& line : lines)
    sink = sink + serve::parse_request(line).index();
  codec.close(span);
  span = codec.open("serve.render");
  for (std::size_t i = 0; i < n; ++i)
    sink = sink +
           serve::projection_reply(std::to_string(i), *reports[i], 1).size();
  codec.close(span);
  store.append(codec);
  const auto loop_us = [&codec, n](std::size_t index) {
    return static_cast<double>(codec.spans()[index].duration_ns()) * 1e-3 /
           static_cast<double>(n);
  };

  // Handle time and queue wait from the recorded executions: a request's
  // wait is from its send to the start of the execution that answered it
  // (0 when it coalesced onto one already running).
  std::vector<double> untraced_handle_ms, traced_handle_ms, queue_wait_ms;
  std::vector<Execution> done;
  {
    std::lock_guard<std::mutex> lock(executions_mutex);
    done = executions;
  }
  std::map<std::string, std::vector<const Execution*>> by_key;
  for (const Execution& e : done) {
    (e.traced ? traced_handle_ms : untraced_handle_ms)
        .push_back((e.end_s - e.start_s) * 1e3);
    by_key[e.key].push_back(&e);
  }
  for (auto& [key, list] : by_key)
    std::sort(list.begin(), list.end(),
              [](const Execution* a, const Execution* b) {
                return a->end_s < b->end_s;
              });
  for (std::size_t i = 0; i < n; ++i) {
    if (replied[i] < 0.0) continue;
    const auto it = by_key.find(population[mix[i]].key());
    if (it == by_key.end()) continue;
    const auto after = std::upper_bound(
        it->second.begin(), it->second.end(), replied[i],
        [](double t, const Execution* e) { return t < e->end_s; });
    if (after == it->second.begin()) continue;
    queue_wait_ms.push_back(
        std::max(0.0, ((*std::prev(after))->start_s - sent[i]) * 1e3));
  }
  const auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  };
  if (untraced_handle_ms.empty() || traced_handle_ms.empty() ||
      queue_wait_ms.empty())
    throw std::runtime_error("serve_exact: no executions recorded");

  std::map<std::string, double> values = pipeline_layer_values(store, counters);
  const double untraced_job_us = mean(untraced_handle_ms) * 1e3;
  const double overhead_pct =
      (mean(traced_handle_ms) / mean(untraced_handle_ms) - 1.0) * 100.0;
  const double job_gap_pct =
      (layer_sum_us(values) / untraced_job_us - 1.0) * 100.0;
  std::fprintf(stderr,
               "reconciliation: layer self times sum to %.2f us/job, "
               "untraced job %.2f us (%+.2f%%), handle-time overhead "
               "%+.2f%%\n",
               layer_sum_us(values), untraced_job_us, job_gap_pct,
               overhead_pct);
  if (std::fabs(job_gap_pct - overhead_pct) > kReconcileSlackPct)
    outcome.problems.push_back(
        "reconciliation: per-layer self times sum to " +
        std::to_string(layer_sum_us(values)) + " us/job, untraced job is " +
        std::to_string(untraced_job_us) + " us");

  const double project_requests = static_cast<double>(n);
  const SetupSummary setup = finish_setups();
  values["hw.registry_load_ms"] = setup.registry_ms;
  values["pcie.calibrate_ms"] = setup.calibrate_ms;
  values["pcie.calibration_hit_ratio"] =
      load_caches.hit_ratio(CacheCounts::kCalibration);
  values["workloads.skeleton_hit_ratio"] =
      load_caches.hit_ratio(CacheCounts::kSkeleton);
  values["dataflow.usage_hit_ratio"] =
      load_caches.hit_ratio(CacheCounts::kUsage);
  values["serve.ping_rtt_us"] = median(ping_us);
  values["serve.parse_us"] = loop_us(0);
  values["serve.render_us"] = loop_us(1);
  values["serve.handle_ms_p50"] = median(untraced_handle_ms);
  values["serve.queue_wait_ms_p50"] = median(queue_wait_ms);
  values["serve.queue_depth_p99"] = quantile(depth_samples, 0.99);
  values["serve.coalesce_ratio"] =
      static_cast<double>(stats_after.coalesce_hits -
                          stats_before.coalesce_hits) /
      project_requests;
  values["serve.shed_ratio"] =
      static_cast<double>(stats_after.shed - stats_before.shed) /
      project_requests;
  values["serve.gen_lag_ms_tail"] = lag_tail;
  values["trace.overhead_pct"] = overhead_pct;
  add_per_layer(outcome, values);

  const std::string path =
      args.trace_dir() + "/" + args.workload + ".spans.tsv";
  if (!store.write(path))
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 path.c_str());
  return outcome;
}

}  // namespace perfbench
