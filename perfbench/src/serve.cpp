// serve-poisson: a child llmfi_serve process (batch 4, 128 KV pages)
// driven over loopback by open-loop Poisson arrivals precomputed from the
// seed. Prompts mix gsm8k-syn (short prompt, long output) and xlsum-syn
// (long prompt, short output); every streamed token is checked against
// gen::generate. See WORKLOADS.md for the rates and the SLO.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <cstdio>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "eval/model_zoo.h"
#include "eval/runner.h"
#include "gen/generate.h"
#include "layers.h"
#include "net/client.h"
#include "net/http.h"
#include "net/loadgen.h"
#include "serve/batch_engine.h"
#include "serve/scheduler.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace net = llmfi::net;
using llmfi::tok::TokenId;

// Fixed offered loads (requests/s) of the HTTP rungs on this workload's
// prompt mix, frozen so that runs on different commits offer the same
// load (WORKLOADS.md gives their share of the measured capacity).
constexpr double kLoRps = 150.0;
constexpr double kHiRps = 260.0;
constexpr int kRungRequests = 1000;    // lo and hi rungs, each
constexpr int kSegments = 4;           // lo/hi alternate in this many parts
constexpr double kLadderStep = 1.05;   // ladder rungs 5% apart
constexpr int kLadderRequests = 400;   // per ladder rung
constexpr int kMaxLadderRungs = 8;
// Open-loop connections: enough that the server, not the client, holds
// the queue at every rung (batch 4 admits at most 4 at a time).
constexpr int kConnections = 8;
constexpr int kMaxNew = 32;
constexpr int kBatch = 4;
constexpr int kKvPages = 128;
constexpr int kPrompts = 64;           // distinct prompts, half each dataset
constexpr int kSetupReps = 3;
// SLO: TTFT <= 50 ms and mean inter-token gap <= 10 ms for >= 99% of the
// requests sent; a failed request misses.
constexpr double kSloTtftMs = 50.0;
constexpr double kSloGapMs = 10.0;
constexpr double kSloShare = 0.99;
// A rung's backlog grows when the mean depth (server queue plus requests
// due but not yet sent) over its last third exceeds that over its first
// third by more than this many requests.
constexpr double kBacklogGrowth = 4.0;

// The server under test as a child process; SIGTERM + wait on scope exit.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::string& cache_dir) {
    // Everything the child needs is built before fork(): between fork and
    // exec it only calls async-signal-safe functions.
    std::vector<std::string> args = {
        bin, "--model", "qilin", "--dataset", "gsm8k-syn", "--host",
        "127.0.0.1", "--port", "0", "--batch", std::to_string(kBatch),
        "--kv-pages", std::to_string(kKvPages), "--max-new",
        std::to_string(kMaxNew)};
    std::vector<std::string> env = {"OMP_NUM_THREADS=1",
                                    "LLMFI_MODEL_CACHE=" + cache_dir};
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.rfind("LLMFI_", 0) != 0 && kv.rfind("OMP_NUM_THREADS=", 0) != 0) {
        env.push_back(kv);
      }
    }
    std::vector<char*> argv, envp;
    for (auto& a : args) argv.push_back(a.data());
    for (auto& e : env) envp.push_back(e.data());
    argv.push_back(nullptr);
    envp.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const auto t0 = Clock::now();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], 1);
      close(fds[0]);
      close(fds[1]);
      execve(argv[0], argv.data(), envp.data());
      _exit(127);
    }
    close(fds[1]);
    out_ = fds[0];
    try {
      wait_ready();
    } catch (...) {
      stop();
      throw;
    }
    ready_s_ = seconds_since(t0);
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  int pid() const { return pid_; }
  double ready_s() const { return ready_s_; }

 private:
  // Reads the bound port from the startup line, then polls /healthz.
  void wait_ready() {
    const auto t0 = Clock::now();
    const std::string line = read_line(60000);
    const auto colon = line.rfind(':');
    if (line.rfind("llmfi_serve listening on", 0) != 0 ||
        colon == std::string::npos) {
      throw std::runtime_error("llmfi_serve did not start: " + line);
    }
    port_ = std::stoi(line.substr(colon + 1));
    for (;;) {
      net::HttpClient c;
      if (c.connect("127.0.0.1", port_)) {
        const auto resp = c.request("GET", "/healthz");
        if (resp && resp->status == 200) return;
      }
      if (seconds_since(t0) > 60) throw std::runtime_error("no /healthz");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // SIGTERM (graceful drain), SIGKILL after 10 s, and reap.
  void stop() {
    kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 10) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Forward the drain summary (completed requests, free KV pages).
    for (std::string l = read_line(0); !l.empty(); l = read_line(0)) {
      std::fprintf(stderr, "perfbench: server: %s\n", l.c_str());
    }
    close(out_);
  }

  std::string read_line(int timeout_ms) {
    std::string line;
    char ch = 0;
    pollfd p{out_, POLLIN, 0};
    while (poll(&p, 1, timeout_ms) > 0 && read(out_, &ch, 1) == 1) {
      if (ch == '\n') break;
      line += ch;
    }
    return line;
  }

  int pid_ = -1;
  int out_ = -1;
  int port_ = 0;
  double ready_s_ = 0.0;
};

std::optional<std::string> http_get(int port, const char* target) {
  net::HttpClient c;
  if (!c.connect("127.0.0.1", port)) return std::nullopt;
  const auto resp = c.request("GET", target);
  if (!resp || resp->status != 200) return std::nullopt;
  return resp->body;
}

struct Prompt {
  std::vector<TokenId> ids;
  std::vector<TokenId> expect;  // gen::generate oracle tokens
};

// The workload's prompts: the first kPrompts / 2 gsm8k-syn and the first
// kPrompts / 2 xlsum-syn evaluation examples that fit max_seq with the
// output budget, each with its sequential-oracle output. The seed orders
// them, never chooses them, so every seed offers the same mix.
std::vector<Prompt> make_prompts(llmfi::eval::Zoo& zoo,
                                 llmfi::model::InferenceModel& engine) {
  std::vector<Prompt> out;
  llmfi::gen::GenerationConfig g;
  g.max_new_tokens = kMaxNew;
  for (const auto kind : {llmfi::data::TaskKind::MathGsm,
                          llmfi::data::TaskKind::Summarization}) {
    int taken = 0;
    for (const auto& ex : zoo.task(kind).eval) {
      if (taken == kPrompts / 2) break;
      Prompt p;
      p.ids = llmfi::eval::build_prompt(zoo.vocab(), ex, false);
      if (static_cast<int>(p.ids.size()) + kMaxNew >= engine.config().max_seq) {
        continue;
      }
      p.expect = llmfi::gen::generate(engine, p.ids, g).tokens;
      out.push_back(std::move(p));
      ++taken;
    }
  }
  return out;
}

struct Schedule {
  std::vector<double> at_s;     // arrival offsets from rung start
  std::vector<int> prompt;      // prompt index per request
};

// Open-loop Poisson arrivals at `rps`: the n exponential inter-arrival
// gaps are the distribution's n stratified quantiles, put in an order
// drawn from the seed, so the gaps stay independent and exponential
// while a 1000-request rung does not swing with how many long gaps the
// seed draws. Prompts cycle through a seeded shuffle of
// the prompt set, each used equally often.
Schedule poisson_schedule(double rps, int n, std::uint64_t seed, int n_prompts) {
  std::mt19937_64 rng(seed);
  std::vector<double> gaps;
  for (int i = 0; i < n; ++i) {
    gaps.push_back(-std::log(1.0 - (i + 0.5) / n) / rps);
  }
  std::shuffle(gaps.begin(), gaps.end(), rng);
  Schedule s;
  std::vector<int> order(static_cast<std::size_t>(n_prompts));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    if (i % n_prompts == 0) {
      for (int j = 0; j < n_prompts; ++j) order[static_cast<std::size_t>(j)] = j;
      std::shuffle(order.begin(), order.end(), rng);
    }
    t += gaps[static_cast<std::size_t>(i)];
    s.at_s.push_back(t);
    s.prompt.push_back(order[static_cast<std::size_t>(i % n_prompts)]);
  }
  return s;
}

struct RungResult {
  double rps = 0.0;
  int sent = 0, ok = 0, failed = 0, slo_met = 0;
  std::vector<double> ttft_ms, tpot_ms, lag_ms;
  double events_per_request = 0.0;
  double mean_tokens = 0.0;
  bool backlog_growing = false;
  bool meets_slo() const {
    return !backlog_growing && slo_met >= kSloShare * sent;
  }
  // Pools another segment of the same rung into this one.
  void add(const RungResult& o) {
    const double n = ok + o.ok;
    if (n > 0) {
      events_per_request = (events_per_request * ok + o.events_per_request * o.ok) / n;
      mean_tokens = (mean_tokens * ok + o.mean_tokens * o.ok) / n;
    }
    rps = o.rps;
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    slo_met += o.slo_met;
    for (auto [mine, theirs] : {std::pair{&ttft_ms, &o.ttft_ms}, {&tpot_ms, &o.tpot_ms},
                                {&lag_ms, &o.lag_ms}}) {
      mine->insert(mine->end(), theirs->begin(), theirs->end());
    }
    backlog_growing = backlog_growing || o.backlog_growing;
  }
};

// One request's client-side record.
struct Sample {
  bool ok = false;  // completed, tokens equal to the oracle's
  int tokens = 0, events = 0;
  double ttft = 0, e2e = 0, lag = 0;  // ms
};

// Reduces a rung's request records and backlog samples (time, depth).
RungResult summarize(const std::vector<Sample>& samples,
                     const std::vector<std::pair<double, double>>& backlog,
                     double span, double rps, const char* where) {
  RungResult r;
  r.rps = rps;
  r.sent = static_cast<int>(samples.size());
  double events = 0, tokens = 0;
  for (const auto& s : samples) {
    r.lag_ms.push_back(s.lag);
    if (!s.ok) {
      ++r.failed;
      continue;
    }
    ++r.ok;
    const double tpot = s.tokens > 1 ? (s.e2e - s.ttft) / (s.tokens - 1) : 0.0;
    r.ttft_ms.push_back(s.ttft);
    r.tpot_ms.push_back(tpot);
    events += s.events;
    tokens += s.tokens;
    if (s.ttft <= kSloTtftMs && tpot <= kSloGapMs) ++r.slo_met;
  }
  r.events_per_request = r.ok > 0 ? events / r.ok : 0.0;
  r.mean_tokens = r.ok > 0 ? tokens / r.ok : 0.0;
  // Backlog grows if the last third of the schedule sat deeper than the
  // first third by more than kBacklogGrowth requests on average.
  std::vector<double> first, last;
  for (const auto& [t, d] : backlog) {
    if (t <= span / 3) first.push_back(d);
    else if (t >= 2 * span / 3 && t <= span) last.push_back(d);
  }
  r.backlog_growing = mean(last) - mean(first) > kBacklogGrowth;
  std::fprintf(stderr,
               "perfbench: %s rung %7.1f rps: sent %d ok %d failed %d, SLO met "
               "%.2f%%, backlog %s, ttft p50 %.3f p99 %.3f ms, tpot p50 %.4f "
               "p99 %.4f ms\n",
               where, rps, r.sent, r.ok, r.failed,
               100.0 * r.slo_met / std::max(1, r.sent),
               r.backlog_growing ? "GROWING" : "flat", percentile(r.ttft_ms, 0.5),
               percentile(r.ttft_ms, 0.99), percentile(r.tpot_ms, 0.5),
               percentile(r.tpot_ms, 0.99));
  return r;
}

// One open-loop rung over loopback HTTP: `conns` connections send each
// request at its scheduled arrival (or as soon as a connection frees up);
// latency is measured from the scheduled arrival, so a stall counts
// against every request it delays. A monitor samples the backlog (server
// queue from /healthz plus requests due but not yet sent) every 25 ms.
RungResult run_rung(int port, const std::vector<Prompt>& prompts,
                    const Schedule& sch, double rps, int conns) {
  const int n = static_cast<int>(sch.at_s.size());
  std::vector<Sample> samples(static_cast<std::size_t>(n));
  std::atomic<int> next{0};
  std::atomic<bool> sending{true};
  const auto t0 = Clock::now();
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  auto ms_since = [](Clock::time_point a) {
    return std::chrono::duration<double, std::milli>(Clock::now() - a).count();
  };

  auto worker = [&] {
    net::HttpClient client;
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      Sample& s = samples[static_cast<std::size_t>(i)];
      const Prompt& p = prompts[static_cast<std::size_t>(sch.prompt[static_cast<std::size_t>(i)])];
      const auto due = at(sch.at_s[static_cast<std::size_t>(i)]);
      const auto picked = Clock::now();
      std::this_thread::sleep_until(due);
      // Generator lateness: how far past max(due, picked) the send went.
      s.lag = ms_since(std::max(due, picked));
      if (!client.connected() && !client.connect("127.0.0.1", port)) continue;
      std::string body = "{\"prompt_ids\":[";
      for (std::size_t j = 0; j < p.ids.size(); ++j) {
        if (j > 0) body += ',';
        body += std::to_string(p.ids[j]);
      }
      body += "],\"max_new_tokens\":" + std::to_string(kMaxNew) + "}";
      std::vector<TokenId> got;
      bool done = false, cancelled = false;
      const auto resp = client.post_sse(
          "/v1/completions", body, [&](const std::string& ev) {
            ++s.events;
            if (net::json_bool_field(ev, "done").value_or(false)) {
              done = true;
              cancelled = net::json_bool_field(ev, "cancelled").value_or(false);
            } else if (const auto tid = net::json_int_field(ev, "token_id")) {
              if (got.empty()) s.ttft = ms_since(due);
              got.push_back(static_cast<TokenId>(*tid));
            }
            return true;
          });
      s.e2e = ms_since(due);
      if (!resp || resp->status != 200 || !done || cancelled) {
        client.close();
        continue;
      }
      s.tokens = static_cast<int>(got.size());
      s.ok = got == p.expect;
    }
  };

  std::vector<std::pair<double, double>> backlog;  // (t, depth)
  std::thread monitor([&] {
    net::HttpClient c;
    while (sending.load()) {
      const double t = seconds_since(t0);
      const int due = static_cast<int>(
          std::upper_bound(sch.at_s.begin(), sch.at_s.end(), t) - sch.at_s.begin());
      double depth = std::max(0, due - std::min(n, next.load()));
      if (c.connected() || c.connect("127.0.0.1", port)) {
        if (const auto r = c.request("GET", "/healthz"); r && r->status == 200) {
          depth += static_cast<double>(net::json_int_field(r->body, "queued").value_or(0));
        } else {
          c.close();
        }
      }
      backlog.push_back({t, depth});
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });
  std::vector<std::thread> pool;
  for (int c = 0; c < conns; ++c) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  sending = false;
  monitor.join();
  return summarize(samples, backlog, sch.at_s.empty() ? 0.0 : sch.at_s.back(),
                   rps, "http");
}

// Closed loop in this process against serve::Scheduler over a
// BatchEngine (batch 4, 128 KV pages): `sessions` requests stay in flight
// (each completion submits the next prompt of a seeded cycle) until `n`
// have completed. One thread submits and ticks, so no thread hand-off or
// sleep enters the figures; latency counts from submission. Appends to
// `out` and returns the wall time.
double closed_rung(llmfi::model::InferenceModel& engine,
                   const std::vector<Prompt>& prompts, int sessions, int n,
                   std::uint64_t seed, std::vector<Sample>& out) {
  const Schedule order = poisson_schedule(1.0, n, seed, static_cast<int>(prompts.size()));
  auto pool = std::make_shared<llmfi::nn::PagePool>(
      kKvPages, llmfi::nn::PagePool::kDefaultPageRows, engine.config().d_model);
  llmfi::serve::BatchEngine be(engine, kBatch, pool);
  llmfi::serve::Scheduler sched(be);
  std::vector<llmfi::serve::Completion> done;
  std::vector<Sample> samples(static_cast<std::size_t>(n));
  std::vector<std::int64_t> submitted(static_cast<std::size_t>(n));
  const std::int64_t t0 = now_ns();
  int next = 0, finished = 0;
  auto submit = [&] {
    const auto i = static_cast<std::size_t>(next++);
    llmfi::serve::Request req;
    req.id = i;
    req.prompt = prompts[static_cast<std::size_t>(order.prompt[i])].ids;
    req.max_new_tokens = kMaxNew;
    req.on_token = [&samples, &submitted](std::uint64_t id, int index, TokenId) {
      if (index == 0) samples[id].ttft = static_cast<double>(now_ns() - submitted[id]) / 1e6;
    };
    submitted[i] = now_ns();
    sched.submit(std::move(req));
  };
  while (next < std::min(sessions, n)) submit();
  while (finished < n) {
    sched.tick(done);
    for (const auto& c : done) {
      Sample& s = samples[c.id];
      s.e2e = static_cast<double>(now_ns() - submitted[c.id]) / 1e6;
      s.tokens = static_cast<int>(c.tokens.size());
      s.ok = !c.cancelled &&
             c.tokens == prompts[static_cast<std::size_t>(order.prompt[c.id])].expect;
      ++finished;
      if (next < n) submit();
    }
    done.clear();
  }
  const double wall = static_cast<double>(now_ns() - t0) / 1e9;
  out.insert(out.end(), samples.begin(), samples.end());
  return wall;
}

// The lo and hi rungs, each split into kSegments parts run alternately so
// host drift during the run weighs on both alike.
template <typename Rung>
std::pair<RungResult, RungResult> run_lo_hi(const Rung& rung, std::uint64_t seed) {
  RungResult lo, hi;
  const int n = kRungRequests / kSegments;
  for (int seg = 0; seg < kSegments; ++seg) {
    lo.add(rung(poisson_schedule(kLoRps, n, derive_seed(seed, 300 + seg), kPrompts),
                kLoRps));
    hi.add(rung(poisson_schedule(kHiRps, n, derive_seed(seed, 400 + seg), kPrompts),
                kHiRps));
  }
  return {lo, hi};
}

// Prometheus histogram delta between two /metrics scrapes.
struct Histogram {
  std::vector<std::pair<double, double>> cum;  // (le, cumulative count)
  double sum = 0.0, count = 0.0;
};

Histogram scrape(const std::string& text, const std::string& name) {
  Histogram h;
  std::istringstream in(text);
  std::string line;
  const std::string bucket = name + "_bucket{le=\"";
  while (std::getline(in, line)) {
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const double v = std::atof(line.c_str() + sp + 1);
    if (line.rfind(bucket, 0) == 0) {
      const std::string le = line.substr(bucket.size(), line.find('"', bucket.size()) - bucket.size());
      h.cum.push_back({le == "+Inf" ? INFINITY : std::atof(le.c_str()), v});
    } else if (line.rfind(name + "_sum ", 0) == 0) {
      h.sum = v;
    } else if (line.rfind(name + "_count ", 0) == 0) {
      h.count = v;
    }
  }
  return h;
}

Histogram delta(const Histogram& after, const Histogram& before) {
  Histogram d = after;
  for (std::size_t i = 0; i < d.cum.size() && i < before.cum.size(); ++i) {
    d.cum[i].second -= before.cum[i].second;
  }
  d.sum -= before.sum;
  d.count -= before.count;
  return d;
}

// Quantile with linear interpolation inside the bucket.
double quantile(const Histogram& h, double q) {
  if (h.cum.empty() || h.cum.back().second <= 0) return 0.0;
  const double rank = q * h.cum.back().second;
  double lo = 0.0, prev = 0.0;
  for (const auto& [le, c] : h.cum) {
    if (c >= rank) {
      if (!std::isfinite(le)) return lo;
      return c > prev ? lo + (le - lo) * (rank - prev) / (c - prev) : le;
    }
    lo = le;
    prev = c;
  }
  return lo;
}

// In-process replay of an arrival schedule against serve::BatchEngine
// (timing admit and step separately) and then serve::Scheduler (timing
// tick), on the benchmark's own engine. Completions are checked against
// the oracle.
struct Replay {
  std::vector<double> admit_us, step_us, step_rows, tick_us;
  long long sent = 0, failed = 0;
};

Replay replay(llmfi::model::InferenceModel& engine,
              const std::vector<Prompt>& prompts, const Schedule& sch,
              Tracer* tracer) {
  Replay out;
  auto pool = std::make_shared<llmfi::nn::PagePool>(
      kKvPages, llmfi::nn::PagePool::kDefaultPageRows, engine.config().d_model);
  std::vector<llmfi::serve::Completion> done;
  auto request = [&](std::size_t i) {
    llmfi::serve::Request req;
    req.id = i;
    req.prompt = prompts[static_cast<std::size_t>(sch.prompt[i])].ids;
    req.max_new_tokens = kMaxNew;
    return req;
  };
  auto check = [&] {
    for (const auto& c : done) {
      ++out.sent;
      if (c.tokens != prompts[static_cast<std::size_t>(sch.prompt[c.id])].expect) {
        ++out.failed;
      }
    }
    done.clear();
  };
  {
    llmfi::serve::BatchEngine be(engine, kBatch, pool);
    std::size_t next = 0;
    const auto t0 = Clock::now();
    while (next < sch.at_s.size() || be.active() > 0) {
      const double now = seconds_since(t0);
      while (next < sch.at_s.size() && sch.at_s[next] <= now &&
             be.active() < be.capacity() && be.can_admit(request(next))) {
        const int span = tracer ? tracer->open("serve.admit", static_cast<std::int64_t>(next)) : -1;
        const std::int64_t a = now_ns();
        be.admit(request(next), done);
        out.admit_us.push_back(static_cast<double>(now_ns() - a) / 1000.0);
        if (tracer) tracer->close(span);
        ++next;
      }
      if (be.active() > 0) {
        out.step_rows.push_back(be.active());
        const int span = tracer ? tracer->open("serve.step", 0) : -1;
        const std::int64_t a = now_ns();
        be.step(done);
        out.step_us.push_back(static_cast<double>(now_ns() - a) / 1000.0);
        if (tracer) tracer->close(span);
      } else if (next < sch.at_s.size()) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(sch.at_s[next])));
      }
      check();
    }
  }
  {
    llmfi::serve::BatchEngine be(engine, kBatch, pool);
    llmfi::serve::Scheduler sched(be);
    std::size_t next = 0;
    const auto t0 = Clock::now();
    while (next < sch.at_s.size() || !sched.idle()) {
      const double now = seconds_since(t0);
      while (next < sch.at_s.size() && sch.at_s[next] <= now) {
        sched.submit(request(next++));
      }
      if (!sched.idle()) {
        const int span = tracer ? tracer->open("serve.tick", 0) : -1;
        const std::int64_t a = now_ns();
        sched.tick(done);
        out.tick_us.push_back(static_cast<double>(now_ns() - a) / 1000.0);
        if (tracer) tracer->close(span);
      } else if (next < sch.at_s.size()) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(sch.at_s[next])));
      }
      check();
    }
  }
  return out;
}

}  // namespace

int run_serve(const Options& o, Result& r, std::string& provenance) {
  const auto t_run = Clock::now();
  const std::string bin = o.bin_dir + "/llmfi_serve";

  // --- setup_s: spawn until /healthz answers, repeated, median -----------
  std::vector<double> setup_s;
  for (int i = 0; i + 1 < (o.trace ? 1 : kSetupReps); ++i) {
    ServerProcess warm(bin, o.cache_dir);
    setup_s.push_back(warm.ready_s());
  }
  ServerProcess server(bin, o.cache_dir);
  setup_s.push_back(server.ready_s());

  // The oracle and the load generator's prompts, in this process.
  llmfi::eval::Zoo zoo(o.cache_dir);
  llmfi::model::InferenceModel engine(
      zoo.get("qilin"),
      llmfi::model::PrecisionConfig::for_dtype(llmfi::num::DType::BF16));
  const std::vector<Prompt> prompts = make_prompts(zoo, engine);

  // Warm-up through net::run_load_arm: a closed loop over every prompt.
  {
    std::vector<net::LoadPrompt> lp;
    for (const auto& p : prompts) lp.push_back({p.ids, p.expect});
    net::LoadArmConfig cfg;
    cfg.name = "warmup";
    cfg.sessions = kConnections;
    cfg.requests = 2 * kPrompts;
    cfg.max_new_tokens = kMaxNew;
    const auto w = net::run_load_arm("127.0.0.1", server.port(), lp, cfg);
    r.check("warm-up (closed loop)", w.requests,
            w.requests - w.completed + w.mismatches);
  }

  const std::string extra =
      "\"batch\": 4, \"kv_pages\": 128, "
      "\"connections\": " + std::to_string(kConnections) + ", \"server_omp_num_threads\": 1"
      ", \"lo_rps\": " + std::to_string(kLoRps) + ", \"hi_rps\": " + std::to_string(kHiRps);

  if (o.trace) {
    Tracer tracer;
    LayerInputs li;
    li.engine = &engine;
    li.vocab = &zoo.vocab();
    for (const auto& p : prompts) {
      li.prompts.push_back(p.ids);
      li.texts.push_back(zoo.vocab().decode(p.ids));
    }
    li.pool = std::make_shared<llmfi::nn::PagePool>(
        kKvPages, llmfi::nn::PagePool::kDefaultPageRows, engine.config().d_model);
    li.fork_prefix = static_cast<int>(median_prompt(li.prompts).size());
    li.max_new_tokens = kMaxNew;
    Figures f = measure_layers(li, tracer);
    {
      SpanScope span(tracer, "net.healthz");
      net::HttpClient c;
      c.connect("127.0.0.1", server.port());
      f["net.healthz_rtt_us"] = time_us([&] { c.request("GET", "/healthz"); }, 50);
    }
    const Schedule lo_sch = poisson_schedule(kLoRps, kRungRequests / 2,
                                             derive_seed(o.seed, 31), kPrompts);
    const RungResult lo = run_rung(server.port(), prompts, lo_sch, kLoRps, kConnections);
    const std::string before = http_get(server.port(), "/metrics").value_or("");
    const RungResult hi = run_rung(
        server.port(), prompts,
        poisson_schedule(kHiRps, kRungRequests / 2, derive_seed(o.seed, 32), kPrompts),
        kHiRps, kConnections);
    const std::string after = http_get(server.port(), "/metrics").value_or("");
    const Histogram qw = delta(scrape(after, "serve_queue_wait_us"),
                               scrape(before, "serve_queue_wait_us"));
    const Histogram occ = delta(scrape(after, "serve_batch_occupancy"),
                                scrape(before, "serve_batch_occupancy"));
    f["serve.queue_wait_us.p50"] = quantile(qw, 0.50);
    f["serve.queue_wait_us.p99"] = quantile(qw, 0.99);
    f["serve.batch_occupancy.hi"] = occ.count > 0 ? occ.sum / occ.count : 0.0;
    std::vector<double> lags = lo.lag_ms;
    lags.insert(lags.end(), hi.lag_ms.begin(), hi.lag_ms.end());
    f["loadgen.send_lag_p99_ms"] = percentile(lags, 0.99);
    f["net.sse_events_per_request"] = lo.events_per_request;

    // Replays of the lo schedule's first requests, untraced and traced in
    // alternating parts.
    // The closed loop x1 of the parts-sum runs between them.
    Replay plain, traced;
    std::vector<Sample> c1;
    for (int part = 0; part < 3; ++part) {
      Schedule sch;
      for (std::size_t i = 0; i < 100; ++i) {
        const std::size_t j = 100 * static_cast<std::size_t>(part) + i;
        sch.at_s.push_back(lo_sch.at_s[j] - (j > i ? lo_sch.at_s[j - i - 1] : 0.0));
        sch.prompt.push_back(lo_sch.prompt[j]);
      }
      for (auto [into, t] : {std::pair{&plain, (Tracer*)nullptr}, {&traced, &tracer}}) {
        const Replay part_r = replay(engine, prompts, sch, t);
        for (auto [mine, theirs] :
             {std::pair{&into->admit_us, &part_r.admit_us}, {&into->step_us, &part_r.step_us},
              {&into->step_rows, &part_r.step_rows}, {&into->tick_us, &part_r.tick_us}}) {
          mine->insert(mine->end(), theirs->begin(), theirs->end());
        }
        into->sent += part_r.sent;
        into->failed += part_r.failed;
      }
      closed_rung(engine, prompts, 1, 100, derive_seed(o.seed, 60 + part), c1);
    }
    f["serve.admit_us"] = median(traced.admit_us);
    f["serve.step_us"] = median(traced.step_us);
    f["serve.step_rows"] = mean(traced.step_rows);
    f["serve.tick_us"] = median(traced.tick_us);
    // Busy time per replay at the median cost of each call.
    const double n_admit = static_cast<double>(traced.admit_us.size());
    const double n_step = static_cast<double>(traced.step_us.size());
    f["trace.overhead_frac"] =
        (median(traced.admit_us) * n_admit + median(traced.step_us) * n_step) /
            (median(plain.admit_us) * n_admit + median(plain.step_us) * n_step) -
        1.0;

    // Parts-sum against the gated figures (in-process closed loop x1):
    // TTFT ~ admit, TPOT ~ step. Over HTTP, TTFT also carries the healthz
    // round trip and the parse, and TPOT the SSE framing (printed only).
    const RungResult x1 = summarize(c1, {}, 0.0, 0.0, "closed x1");
    const double ntok = x1.mean_tokens;
    const double meas_ttft = 1000 * percentile(x1.ttft_ms, 0.5);
    const double meas_tpot = 1000 * percentile(x1.tpot_ms, 0.5);
    f["trace.parts_sum_ratio"] =
        (f["serve.admit_us"] + (ntok - 1) * f["serve.step_us"]) /
        (meas_ttft + (ntok - 1) * meas_tpot);
    std::fprintf(stderr,
                 "perfbench: parts, closed loop x1: ttft %.0f us predicted vs %.0f us, "
                 "tpot %.0f vs %.0f us; http lo: ttft %.0f us predicted vs %.0f us, "
                 "tpot %.0f vs %.0f us\n",
                 f["serve.admit_us"], meas_ttft, f["serve.step_us"], meas_tpot,
                 f["net.healthz_rtt_us"] + f["net.parse_ns"] / 1000 + f["serve.admit_us"],
                 1000 * percentile(lo.ttft_ms, 0.5),
                 f["serve.step_us"] + f["net.sse_frame_ns"] / 1000,
                 1000 * percentile(lo.tpot_ms, 0.5));
    report_modules(tracer, f["trace.parts_sum_ratio"], "p50 request time, closed loop x1");
    emit_per_layer(r, f);
    r.check("rung lo", lo.sent, lo.failed);
    r.check("rung hi", hi.sent, hi.failed);
    r.check("replay (untraced)", plain.sent, plain.failed);
    r.check("replay (traced)", traced.sent, traced.failed);
    r.check("closed loop x1", x1.sent, x1.failed);
    tracer.write_json(o.out_dir + "/perfbench-trace-" + o.workload + ".json");
    provenance = provenance_json(o, seconds_since(t_run), extra);
    return 0;
  }

  // The open-loop load test over loopback HTTP: rungs lo and hi, then a
  // ladder 5% apart upward from hi. Every streamed token is checked; the
  // latencies and max_rps_under_slo are printed, not gated: thread
  // wake-ups, not the engine, dominate them on a small VM and they swing
  // by 15-50% between runs.
  const auto http = [&](const Schedule& sch, double rps) {
    return run_rung(server.port(), prompts, sch, rps, kConnections);
  };
  const auto [lo, hi] = run_lo_hi(http, o.seed);
  r.check("http rung lo", lo.sent, lo.failed);
  r.check("http rung hi", hi.sent, hi.failed);
  double max_rps = 0.0;
  if (lo.meets_slo()) max_rps = kLoRps;
  if (hi.meets_slo()) {
    max_rps = kHiRps;
    double rps = kHiRps;
    for (int k = 1; k <= kMaxLadderRungs; ++k) {
      rps *= kLadderStep;
      const RungResult step = http(
          poisson_schedule(rps, kLadderRequests, derive_seed(o.seed, 40 + k), kPrompts),
          rps);
      r.check("http ladder rung " + std::to_string(k), step.sent, step.failed);
      if (!step.meets_slo()) break;
      max_rps = rps;
    }
  }
  for (const auto& [rung, name] : {std::pair{&lo, "lo"}, std::pair{&hi, "hi"}}) {
    std::fprintf(stderr,
                 "perfbench: http %s (%.0f rps): ttft_p50_ms %.3f ttft_p99_ms %.3f "
                 "tpot_p50_ms %.4f tpot_p99_ms %.4f\n",
                 name, rung->rps, percentile(rung->ttft_ms, 0.5),
                 percentile(rung->ttft_ms, 0.99), percentile(rung->tpot_ms, 0.5),
                 percentile(rung->tpot_ms, 0.99));
  }
  std::fprintf(stderr, "perfbench: http max_rps_under_slo %.1f\n", max_rps);

  // The gated figures: closed loops in process at 1 request in flight
  // (lo) and a full batch of 4 (hi), in alternating slices.
  std::vector<Sample> c1, c4;
  std::vector<double> rates;
  closed_rung(engine, prompts, 1, 100, derive_seed(o.seed, 50), c1);  // warm-up
  c1.clear();
  const auto t_measure = Clock::now();
  for (int round = 0; round == 0 || seconds_since(t_measure) < o.seconds / 3.0; ++round) {
    closed_rung(engine, prompts, 1, 200, derive_seed(o.seed, 600 + round), c1);
    const int n = 400;
    rates.push_back(n / closed_rung(engine, prompts, kBatch, n,
                                    derive_seed(o.seed, 700 + round), c4));
  }
  const RungResult lo_in = summarize(c1, {}, 0.0, 0.0, "closed x1");
  const RungResult hi_in = summarize(c4, {}, 0.0, 0.0, "closed x4");
  r.check("closed loop x1", lo_in.sent, lo_in.failed);
  r.check("closed loop x4", hi_in.sent, hi_in.failed);
  r.metric("setup_s", median(setup_s), "s");
  r.metric("throughput_per_s", median(rates), "1/s");
  emit_latency(r, lo_in.ttft_ms, lo_in.tpot_ms, "lo");
  emit_latency(r, hi_in.ttft_ms, hi_in.tpot_ms, "hi");
  r.metric("peak_rss_mb", pid_peak_rss_mb(server.pid()), "MB");
  provenance = provenance_json(o, seconds_since(t_run), extra);
  return 0;
}

}  // namespace perfbench
