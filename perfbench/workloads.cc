#include "perfbench/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "perfbench/oracle.h"
#include "perfbench/trace.h"
#include "src/casper/batch_query_engine.h"
#include "src/casper/casper.h"
#include "src/casper/workload.h"
#include "src/common/chunked_dispatch.h"
#include "src/common/codec.h"
#include "src/common/stats.h"
#include "src/common/stopwatch.h"
#include "src/network/network_generator.h"
#include "src/scenarios/oracles.h"
#include "src/transport/listener.h"
#include "src/transport/socket_channel.h"

namespace perfbench {
namespace {

using casper::CasperService;
using casper::Result;
using casper::Status;
using casper::Stopwatch;
using casper::server::BatchQueryRequest;
using casper::server::BatchQueryResponse;

constexpr size_t kKindCount = casper::obs::kQueryKindCount;

/// Span names of the server compute time each answer reports, by kind.
constexpr const char* kComputeSpan[kKindCount] = {
    "server.compute.nearest_public", "server.compute.k_nearest_public",
    "server.compute.range_public",   "server.compute.nearest_private",
    "server.compute.public_nearest", "server.compute.public_range",
    "server.compute.density",
};

/// Set-up that cannot proceed ends the run without a result line.
void Require(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what,
               std::string(status.message()).c_str());
  std::exit(1);
}

size_t Workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<size_t>(n == 0 ? 1 : n, 1, 4);
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class ReadMix {
  kCloaked,      ///< NN, 5-NN, range (r = 1% of width), buddy NN.
  kPublicData,   ///< NN, 5-NN, range: the small answers.
  kPrivateData,  ///< Buddy NN, public NN over private, range count.
};

/// Every workload runs in ticks: each user moves once per tick. A tick's
/// updates go in kSlicesPerTick slices, each followed by reads: the read
/// workloads read for kReadSegmentSeconds / kSlicesPerTick, so reads
/// dominate; move_and_query runs a fixed number of batches. Short
/// alternating phases spread both kinds of sample over the whole run, so
/// a slow second of the host lands in a few samples of each, not in one
/// phase.
struct Spec {
  const char* name;
  size_t users;
  size_t targets;
  bool socket;               ///< Server behind an in-process UDS listener.
  size_t batch_size;         ///< 0: one request at a time via Execute().
  ReadMix mix;
  size_t batches_per_slice;  ///< 0: reads for a share of kReadSegmentSeconds.
};

constexpr size_t kSlicesPerTick = 8;
constexpr double kReadSegmentSeconds = 4.0;

constexpr Spec kSpecs[] = {
    {"query_mix", 20000, 200000, false, 256, ReadMix::kCloaked, 0},
    {"socket_query", 10000, 10000, true, 0, ReadMix::kPublicData, 0},
    {"move_and_query", 20000, 10000, false, 256, ReadMix::kPrivateData, 8},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// Requests of the deterministic pass come from a disjoint index range,
/// so the timed stream does not start on a warmed set of cloaks.
constexpr uint64_t kCountPassBase = uint64_t{1} << 40;
constexpr size_t kCountPassQueries = 512;

/// Untimed read operations before the first timed tick, from their own
/// slice of the stream (read operation kWarmupOpBase + i).
constexpr uint64_t kWarmupOpBase = uint64_t{1} << 30;
constexpr size_t kWarmupBatches = 32;
constexpr size_t kWarmupRequests = 4096;

/// One map for every seed: the seed varies the traffic on it (where the
/// users start and drive, their profiles, the targets and the queries),
/// so the spread across seeds is the system's, not the city's.
constexpr uint64_t kMapSeed = 1;

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// Everything the stack is fed, made from the seed before any timing:
/// users on a synthetic road network (moved by the simulator, one tick
/// per call), their privacy profiles, the public targets, and the query
/// stream, where request i depends only on (seed, i).
class Inputs {
 public:
  Inputs(const Spec& spec, uint64_t seed) : spec_(spec), seed_(seed) {
    casper::network::NetworkGeneratorOptions net_options;
    auto network =
        casper::network::NetworkGenerator(net_options).Generate(kMapSeed);
    Require(network.status(), "road network generation");
    network_ = std::make_unique<casper::network::RoadNetwork>(
        std::move(network).value());
    casper::network::SimulatorOptions sim_options;
    sim_options.object_count = spec.users;
    sim_options.tick_seconds = 1.0;
    simulator_ = std::make_unique<casper::network::MovingObjectSimulator>(
        network_.get(), sim_options, SubSeed(seed, 1));
    // Objects start on network nodes; a map crossing of travel spreads
    // them along the edges first.
    for (int i = 0; i < 60; ++i) simulator_->Tick();

    casper::Rng rng(SubSeed(seed, 2));
    const casper::workload::ProfileDistribution paper_profiles;
    for (size_t uid = 0; uid < spec.users; ++uid) {
      profiles_.push_back(
          casper::workload::SampleProfile(paper_profiles, space_.Area(), &rng));
      positions_.push_back(
          casper::ClampToRect(simulator_->PositionOf(uid), space_));
    }
    targets_ = casper::workload::UniformPublicTargets(spec.targets, space_, &rng);
  }

  const Rect& space() const { return space_; }
  const std::vector<casper::anonymizer::PrivacyProfile>& profiles() const {
    return profiles_;
  }
  const std::vector<Point>& initial_positions() const { return positions_; }
  const std::vector<PublicTarget>& targets() const { return targets_; }

  /// Location updates of movement tick `t` (simulated on first use and
  /// kept, so a replay sees the identical history).
  const std::vector<casper::network::LocationUpdate>& Tick(size_t t) {
    while (ticks_.size() <= t) ticks_.push_back(simulator_->Tick());
    return ticks_[t];
  }

  BatchQueryRequest Request(uint64_t index) const {
    casper::Rng rng(SubSeed(seed_, 1000 + index));
    const uint64_t uid = rng.UniformInt(0, spec_.users - 1);
    if (spec_.mix != ReadMix::kPrivateData) {
      switch (index % (spec_.mix == ReadMix::kCloaked ? 4 : 3)) {
        case 0:
          return BatchQueryRequest::NearestPublic(uid);
        case 1:
          return BatchQueryRequest::KNearestPublic(uid, 5);
        case 2:
          return BatchQueryRequest::RangePublic(uid, 0.01 * space_.width());
        default:
          return BatchQueryRequest::NearestPrivate(uid);
      }
    }
    switch (index % 3) {
      case 0:
        return BatchQueryRequest::NearestPrivate(uid);
      case 1:
        return BatchQueryRequest::PublicNearest(rng.PointIn(space_));
      default: {
        const double side = 0.02 * space_.width();
        const Point corner = rng.PointIn(
            Rect(space_.min.x, space_.min.y, space_.max.x - side,
                 space_.max.y - side));
        return BatchQueryRequest::PublicRange(
            Rect(corner.x, corner.y, corner.x + side, corner.y + side));
      }
    }
  }

 private:
  const Spec& spec_;
  const uint64_t seed_;
  const Rect space_ = casper::anonymizer::PyramidConfig{}.space;
  std::unique_ptr<casper::network::RoadNetwork> network_;
  std::unique_ptr<casper::network::MovingObjectSimulator> simulator_;
  std::vector<casper::anonymizer::PrivacyProfile> profiles_;
  std::vector<Point> positions_;
  std::vector<PublicTarget> targets_;
  std::vector<std::vector<casper::network::LocationUpdate>> ticks_;
};

// ---------------------------------------------------------------------------
// The stack under test
// ---------------------------------------------------------------------------

/// Kind, request id and server compute time of a CandidateListMsg
/// frame, read in place from its fixed header (tag u8, kind u8, request
/// id u64, degraded u8, processor_seconds f64, all little-endian; see
/// src/casper/messages.cc). The traced channel span reads them this
/// way so that it does not also pay the frame's checksum; the
/// self-tests hold the offsets to the codec's decoder.
struct AnswerHeader {
  size_t kind = 0;
  uint64_t request_id = 0;
  double processor_seconds = 0.0;
};

std::optional<AnswerHeader> PeekAnswerHeader(std::string_view frame) {
  constexpr size_t kHeaderBytes = 1 + 1 + 8 + 1 + 8;
  const auto tag = casper::TagOf(frame);
  if (!tag.ok() || tag.value() != casper::MessageTag::kCandidateList ||
      frame.size() < kHeaderBytes + casper::wire::kChecksumBytes) {
    return std::nullopt;
  }
  auto u64_at = [&](size_t offset) {
    uint64_t v = 0;
    for (size_t i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(frame[offset + i]))
           << (8 * i);
    }
    return v;
  };
  AnswerHeader header;
  header.kind = static_cast<uint8_t>(frame[1]);
  header.request_id = u64_at(2);
  const uint64_t bits = u64_at(11);
  std::memcpy(&header.processor_seconds, &bits, sizeof(bits));
  if (header.kind >= kKindCount || !(header.processor_seconds >= 0.0) ||
      header.processor_seconds > 60.0) {
    return std::nullopt;
  }
  return header;
}

/// Pass-through decorator on the anonymizer->server channel. It always
/// counts query frames and bytes; once a tracer is armed it also opens
/// a span around every call ("transport.channel" for queries,
/// "server.apply" for maintenance frames, "server.load" for snapshots)
/// and records the server compute time the answer reports as the query
/// span's child. A successful query answer whose header does not read
/// back (wrong tag, kind or request id) is counted in bad_answers().
class MeteredChannel : public casper::transport::Channel {
 public:
  struct Totals {
    uint64_t query_calls = 0;
    uint64_t query_request_bytes = 0;
    uint64_t query_response_bytes = 0;
  };

  MeteredChannel(casper::transport::Channel* inner,
                 std::unique_ptr<casper::transport::Channel> owned)
      : inner_(inner), owned_(std::move(owned)) {}

  /// Arm before the traced phase; no call may be in flight.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  Result<std::string> Call(std::string_view request,
                           const casper::transport::CallContext& context) override {
    const auto tag = casper::TagOf(request);
    const bool query =
        tag.ok() && tag.value() == casper::MessageTag::kCloakedQuery;
    Result<std::string> response =
        tracer_ == nullptr ? inner_->Call(request, context)
                           : TracedCall(request, context, query, tag);
    if (query) {
      query_calls_.fetch_add(1, std::memory_order_relaxed);
      query_request_bytes_.fetch_add(request.size(), std::memory_order_relaxed);
      query_response_bytes_.fetch_add(
          response.ok() ? response.value().size() : 0,
          std::memory_order_relaxed);
    }
    return response;
  }

  Totals totals() const {
    return {query_calls_.load(), query_request_bytes_.load(),
            query_response_bytes_.load()};
  }

  uint64_t bad_answers() const { return bad_answers_.load(); }

 private:
  Result<std::string> TracedCall(std::string_view request,
                                 const casper::transport::CallContext& context,
                                 bool query,
                                 const Result<casper::MessageTag>& tag) {
    const char* name = query ? "transport.channel"
                       : tag.ok() && tag.value() == casper::MessageTag::kSnapshot
                           ? "server.load"
                           : "server.apply";
    Tracer::Span span(tracer_, name);
    Result<std::string> response = inner_->Call(request, context);
    if (query && response.ok()) {
      const int64_t end = NowNs();
      const std::optional<AnswerHeader> answer =
          PeekAnswerHeader(response.value());
      if (!answer || answer->request_id != casper::RequestIdOf(request)) {
        bad_answers_.fetch_add(1, std::memory_order_relaxed);
      } else {
        tracer_->Record(kComputeSpan[answer->kind],
                        end - static_cast<int64_t>(
                                  answer->processor_seconds * 1e9),
                        end);
      }
    }
    return response;
  }

  casper::transport::Channel* inner_;
  std::unique_ptr<casper::transport::Channel> owned_;
  Tracer* tracer_ = nullptr;
  std::atomic<uint64_t> query_calls_{0};
  std::atomic<uint64_t> query_request_bytes_{0};
  std::atomic<uint64_t> query_response_bytes_{0};
  std::atomic<uint64_t> bad_answers_{0};
};

/// One deployment: the facade, with its server tier in process or
/// behind a Unix-domain socket listener (wired as scenarios::
/// ScenarioStack's kSocket, with the socket file in the run directory),
/// plus the batch engine for batched workloads. Setup() is the timed
/// set-up: registration, target bulk load and the first sync.
class Stack {
 public:
  Stack(const Spec& spec, const std::string& run_dir)
      : spec_(spec), metrics_(&registry_) {
    casper::CasperOptions options;
    options.auto_sync_private_data = true;
    options.metrics = &metrics_;
    if (spec.socket) {
      casper::server::QueryServerOptions server_options;
      server_options.density_extent = options.pyramid.space;
      server_options.metrics = &metrics_;
      socket_server_ =
          std::make_unique<casper::server::QueryServer>(server_options);
      endpoint_ = std::make_unique<casper::transport::ServerEndpoint>(
          socket_server_.get());
      static std::atomic<int> counter{0};
      socket_path_ = run_dir + "/casper-" + std::to_string(getpid()) + "-" +
                     std::to_string(counter.fetch_add(1)) + ".sock";
      casper::transport::ListenerOptions listener_options;
      listener_options.worker_threads = static_cast<int>(Workers());
      listener_options.metrics = &metrics_;
      casper::transport::ServerEndpoint* endpoint = endpoint_.get();
      auto listener = casper::transport::SocketListener::Start(
          "unix:" + socket_path_,
          casper::transport::SerializedHandler(
              [endpoint](std::string_view request,
                         const casper::transport::CallContext& context) {
                return endpoint->Handle(request, context);
              }),
          listener_options);
      Require(listener.status(), "socket listener start");
      listener_ = std::move(listener).value();
      const std::string address = "unix:" + socket_path_;
      options.channel_decorator = [this, address](casper::transport::Channel*) {
        casper::transport::SocketChannelOptions socket_options;
        socket_options.connect_timeout_seconds = 0.5;
        socket_options.io_timeout_seconds = 5.0;
        socket_options.metrics = &metrics_;
        auto socket = std::make_unique<casper::transport::SocketChannel>(
            address, socket_options);
        auto* raw = socket.get();
        auto metered = std::make_unique<MeteredChannel>(raw, std::move(socket));
        channel_ = metered.get();
        return std::unique_ptr<casper::transport::Channel>(std::move(metered));
      };
    } else {
      options.channel_decorator = [this](casper::transport::Channel* direct) {
        auto metered = std::make_unique<MeteredChannel>(direct, nullptr);
        channel_ = metered.get();
        return std::unique_ptr<casper::transport::Channel>(std::move(metered));
      };
    }
    service_ = std::make_unique<CasperService>(options);
  }

  ~Stack() {
    engine_.reset();
    service_.reset();
    if (listener_ != nullptr) {
      listener_->Shutdown();
      std::filesystem::remove(socket_path_);
    }
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// `tracer`, when set, is armed on the channel for the first sync,
  /// whose halves are recorded as "anonymizer.snapshot" and
  /// "transport.load" under a "sync" root.
  Status Setup(const Inputs& inputs, Tracer* tracer) {
    const auto& positions = inputs.initial_positions();
    for (size_t uid = 0; uid < positions.size(); ++uid) {
      CASPER_RETURN_IF_ERROR(service_->RegisterUser(
          uid, inputs.profiles()[uid], positions[uid]));
    }
    if (socket_server_ != nullptr) {
      socket_server_->SetPublicTargets(inputs.targets());
    } else {
      service_->SetPublicTargets(inputs.targets());
    }
    if (tracer == nullptr) {
      CASPER_RETURN_IF_ERROR(service_->SyncPrivateData());
    } else {
      channel_->set_tracer(tracer);
      Tracer::Span root(tracer, "sync");
      Result<casper::SnapshotMsg> snapshot = [&] {
        Tracer::Span span(tracer, "anonymizer.snapshot");
        return service_->anonymizer_tier().BuildSnapshot();
      }();
      if (!snapshot.ok()) return snapshot.status();
      Tracer::Span span(tracer, "transport.load");
      CASPER_RETURN_IF_ERROR(service_->transport_client().Load(snapshot.value()));
    }
    if (spec_.batch_size > 0) {
      casper::server::BatchEngineOptions engine_options;
      engine_options.threads = Workers();
      engine_options.metrics = &metrics_;
      engine_ = std::make_unique<casper::server::BatchQueryEngine>(
          service_.get(), engine_options);
    }
    return Status::OK();
  }

  CasperService& service() { return *service_; }
  /// The server tier that holds the data, wherever it runs.
  const casper::server::QueryServer& data_server() const {
    return socket_server_ != nullptr ? *socket_server_
                                     : service_->query_server();
  }
  MeteredChannel& channel() { return *channel_; }
  casper::server::BatchQueryEngine& engine() { return *engine_; }
  casper::obs::CasperMetrics& metrics() { return metrics_; }

 private:
  const Spec& spec_;
  casper::obs::MetricsRegistry registry_;
  casper::obs::CasperMetrics metrics_;
  std::unique_ptr<casper::server::QueryServer> socket_server_;
  std::unique_ptr<casper::transport::ServerEndpoint> endpoint_;
  std::unique_ptr<casper::transport::SocketListener> listener_;
  std::string socket_path_;
  MeteredChannel* channel_ = nullptr;  // Owned by the service.
  std::unique_ptr<CasperService> service_;
  std::unique_ptr<casper::server::BatchQueryEngine> engine_;
};

// ---------------------------------------------------------------------------
// Traced replay of the facade's calls
// ---------------------------------------------------------------------------

/// Wraps the resilient client as the anonymizer's maintenance sink.
class TracedSink : public casper::PrivateStoreSink {
 public:
  TracedSink(Tracer* tracer, casper::PrivateStoreSink* inner)
      : tracer_(tracer), inner_(inner) {}
  Status Apply(const casper::RegionUpsertMsg& msg) override {
    Tracer::Span span(tracer_, "transport.apply");
    return inner_->Apply(msg);
  }
  Status Apply(const casper::RegionRemoveMsg& msg) override {
    Tracer::Span span(tracer_, "transport.apply");
    return inner_->Apply(msg);
  }

 private:
  Tracer* tracer_;
  casper::PrivateStoreSink* inner_;
};

/// CasperService::Evaluate's body: strip, execute, refine.
Result<casper::QueryResponse> TracedEvaluate(
    CasperService& service, Tracer* tracer, const casper::QueryRequest& request,
    const casper::anonymizer::CloakingResult& cloak,
    casper::processor::ConcurrentQueryCache* cache) {
  auto& tier = service.anonymizer_tier();
  Result<casper::CloakedQueryMsg> stripped = [&] {
    Tracer::Span span(tracer, "anonymizer.strip");
    return tier.StripIdentity(request, cloak);
  }();
  if (!stripped.ok()) return stripped.status();
  Result<casper::CandidateListMsg> answer = [&] {
    Tracer::Span span(tracer, "transport.client");
    return service.transport_client().Execute(stripped.value(), cache);
  }();
  if (!answer.ok()) return answer.status();
  Tracer::Span span(tracer, "anonymizer.refine");
  return tier.RefineForClient(request, cloak, std::move(answer).value(),
                              service.options().transmission);
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

/// Median over consecutive windows of `window` operations of the rate
/// ops / summed latency: a closed loop's throughput with a stray stall
/// confined to the one window it lands in.
double MedianWindowRate(const std::vector<double>& latencies_s,
                        const std::vector<double>& ops, size_t window) {
  casper::SummaryStats rates;
  double time = 0.0;
  double count = 0.0;
  size_t in_window = 0;
  for (size_t i = 0; i < latencies_s.size(); ++i) {
    time += latencies_s[i];
    count += ops.empty() ? 1.0 : ops[i];
    if (++in_window == window) {
      if (time > 0.0) rates.Add(count / time);
      time = count = 0.0;
      in_window = 0;
    }
  }
  if (rates.count() == 0 && time > 0.0) rates.Add(count / time);
  return rates.Quantile(0.5);
}

/// Median over consecutive windows of `window` samples of each window's
/// q-quantile: the tail a typical stretch of the run sees, so a burst of
/// host noise moves only the windows it lands in. A short run's samples
/// form one window. Quantiles are SummaryStats' nearest-rank ones.
double MedianWindowQuantile(const std::vector<double>& values, double q,
                            size_t window) {
  window = std::min(window, values.size());
  casper::SummaryStats quantiles;
  for (size_t begin = 0; window > 0 && begin + window <= values.size();
       begin += window) {
    casper::SummaryStats in_window;
    for (size_t i = begin; i < begin + window; ++i) in_window.Add(values[i]);
    quantiles.Add(in_window.Quantile(q));
  }
  return quantiles.Quantile(0.5);
}

/// Latency windows: at least 50 samples beyond each window's p99.
constexpr size_t kQueryLatencyWindow = 10000;
constexpr size_t kUpdateLatencyWindow = 5000;

template <typename Payload>
size_t RecordsOf(const Payload& payload) {
  return std::visit(
      [](const auto& r) -> size_t {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return 0;
        } else if constexpr (std::is_same_v<T, casper::processor::RangeCountResult>) {
          return r.overlapping.size();
        } else if constexpr (std::is_same_v<T, casper::processor::PublicNNCandidates>) {
          return r.candidates.size();
        } else if constexpr (std::is_same_v<T, casper::processor::DensityMap>) {
          return static_cast<size_t>(r.cols()) * static_cast<size_t>(r.rows());
        } else {
          return r.server_answer.candidates.size();
        }
      },
      payload);
}

/// Statistics of one phase (stack A untraced, or stack B traced).
struct Phase {
  std::vector<double> update_s;     ///< Per update.
  std::vector<double> op_wall_s;    ///< Per read operation (batch or request).
  std::vector<double> op_queries;   ///< Queries per read operation.
  uint64_t queries = 0;
  uint64_t warmup_queries = 0;
  uint64_t query_failures = 0;
  uint64_t update_failures = 0;
  uint64_t records = 0;
  std::vector<size_t> ops_per_step;  ///< Read operations, per timed slice.
  uint64_t warmup_updates = 0;
  // Batch engine summaries (untraced only).
  double batch_cloak_s = 0.0;
  double batch_wall_s = 0.0;
  double pool_utilization_sum = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  // Write path.
  uint64_t repacks = 0;
  double delta_entries_sum = 0.0;
  uint64_t pyramid_counter_updates = 0;
  uint64_t pyramid_location_updates = 0;
  CheckTally checks;
};

struct KindCount {
  uint64_t queries = 0;
  uint64_t records = 0;
  uint64_t request_bytes = 0;
  uint64_t response_bytes = 0;
};

// ---------------------------------------------------------------------------
// One run over one stack
// ---------------------------------------------------------------------------

class Driver {
 public:
  Driver(const Spec& spec, Inputs* inputs, Stack* stack, Tracer* tracer,
         uint64_t seed)
      : spec_(spec), inputs_(inputs), stack_(stack), tracer_(tracer),
        seed_(seed), positions_(inputs->initial_positions()) {
    if (tracer_ != nullptr && spec_.batch_size > 0) {
      pool_ = std::make_unique<casper::ThreadPool>(Workers());
      cache_ = std::make_unique<casper::processor::ConcurrentQueryCache>(
          &stack_->service().public_store(),
          casper::server::BatchEngineOptions{}.cache_capacity,
          stack_->service().options().filter_policy);
    }
  }

  /// Runs slices until `deadline_s` of wall time have passed, or — when
  /// `replay` is set — exactly its slices with the same reads in each.
  void Run(double deadline_s, const Phase* replay, bool count_pass) {
    Stopwatch clock;
    size_t op = 0;
    // Tick 0 is the warm-up: the first writes after set-up, untimed.
    ApplyUpdates(0, 0, 1, /*timed=*/false);
    if (count_pass) CountPass();
    WarmUp();
    for (size_t step = 0;; ++step) {
      ApplyUpdates(1 + step / kSlicesPerTick, step % kSlicesPerTick,
                   kSlicesPerTick, /*timed=*/true);
      RefreshStored();
      const size_t first = op;
      if (replay != nullptr) {
        while (op < first + replay->ops_per_step[step]) ReadOp(op++);
      } else if (spec_.batches_per_slice > 0) {
        while (op < first + spec_.batches_per_slice) ReadOp(op++);
      } else {
        const double end =
            std::min(deadline_s, clock.ElapsedSeconds() +
                                     kReadSegmentSeconds / kSlicesPerTick);
        while (clock.ElapsedSeconds() < end) ReadOp(op++);
      }
      phase_.ops_per_step.push_back(op - first);
      if (replay != nullptr ? phase_.ops_per_step.size() == replay->ops_per_step.size()
                            : clock.ElapsedSeconds() >= deadline_s) {
        break;
      }
    }
    if (replay == nullptr && spec_.mix != ReadMix::kPrivateData) {
      // Theorem 1 through the facade's own sequential path, for a seeded
      // sample of users (scenarios' embedded oracle).
      casper::scenarios::OracleStats stats;
      casper::Rng rng(SubSeed(seed_, 3));
      for (int i = 0; i < 16; ++i) {
        casper::scenarios::CheckNnInclusiveness(
            &stack_->service(), inputs_->targets(),
            rng.UniformInt(0, spec_.users - 1), &stats);
      }
      for (uint64_t i = 0; i < stats.nn_checks; ++i) {
        phase_.checks.Add(i < stats.nn_violations
                              ? "nn: scenario oracle found a violation"
                              : "");
      }
      if (stats.skipped > 0) phase_.checks.Add("nn: scenario oracle skipped");
    }
  }

  Phase& phase() { return phase_; }
  const KindCount* kind_counts() const { return kinds_; }
  uint64_t count_cache_hits() const { return count_cache_hits_; }
  uint64_t count_cache_lookups() const { return count_cache_lookups_; }
  double tick0_counter_updates_per_update() const { return tick0_cu_; }
  double tick0_repacks_per_1k() const { return tick0_repacks_; }

 private:
  /// Moves the users of slice `slice` of `slices` of movement tick `tick`.
  void ApplyUpdates(size_t tick, size_t slice, size_t slices, bool timed) {
    CasperService& service = stack_->service();
    const auto& anonymizer_stats = service.anonymizer().stats();
    const uint64_t cu0 = anonymizer_stats.counter_updates;
    const uint64_t lu0 = anonymizer_stats.location_updates;
    const uint64_t rp0 =
        stack_->data_server().private_store().epoch_stats().rebuilds;
    TracedSink sink(tracer_, &service.transport_client());
    // The warm-up tick stays out of the trace.
    if (!timed) stack_->channel().set_tracer(nullptr);
    const Rect& space = inputs_->space();
    size_t applied = 0;
    const auto& updates = inputs_->Tick(tick);
    const size_t end = updates.size() * (slice + 1) / slices;
    for (size_t i = updates.size() * slice / slices; i < end; ++i) {
      const auto& update = updates[i];
      const Point position = casper::ClampToRect(update.position, space);
      Stopwatch watch;
      Status status;
      if (tracer_ == nullptr || !timed) {
        status = service.UpdateUserLocation(update.uid, position);
      } else {
        Tracer::Span root(tracer_, "update", ++request_id_);
        Tracer::Span span(tracer_, "anonymizer.update");
        status = service.anonymizer_tier().UpdateLocation(update.uid, position,
                                                          &sink);
      }
      if (timed) {
        phase_.update_s.push_back(watch.ElapsedSeconds());
      } else {
        ++phase_.warmup_updates;
      }
      if (!status.ok()) {
        ++phase_.update_failures;
        continue;
      }
      ++applied;
      positions_[update.uid] = position;
    }
    const uint64_t cu = anonymizer_stats.counter_updates - cu0;
    const uint64_t lu = anonymizer_stats.location_updates - lu0;
    const uint64_t rp =
        stack_->data_server().private_store().epoch_stats().rebuilds - rp0;
    if (!timed) {
      stack_->channel().set_tracer(tracer_);
      tick0_cu_ = lu > 0 ? static_cast<double>(cu) / static_cast<double>(lu) : 0.0;
      tick0_repacks_ = applied > 0 ? 1000.0 * static_cast<double>(rp) /
                                         static_cast<double>(applied)
                                   : 0.0;
      return;
    }
    phase_.pyramid_counter_updates += cu;
    phase_.pyramid_location_updates += lu;
    phase_.repacks += rp;
    phase_.delta_entries_sum += static_cast<double>(
        stack_->data_server().private_store().epoch_stats().delta_entries);
  }

  /// Reads before the timed ticks, so that the first timed ones do not
  /// pay for a cold query cache, allocator arenas and pool. Their answers
  /// are checked and their failures count; their times are dropped, and
  /// so are their spans in a traced replay (which does the same reads).
  void WarmUp() {
    RefreshStored();
    Tracer dropped;
    Tracer* const tracer = tracer_;
    if (tracer_ != nullptr) tracer_ = &dropped;
    stack_->channel().set_tracer(tracer_);
    Phase timed = std::move(phase_);
    phase_ = Phase{};
    const size_t ops = spec_.batch_size > 0 ? kWarmupBatches : kWarmupRequests;
    for (size_t i = 0; i < ops; ++i) ReadOp(kWarmupOpBase + i);
    timed.warmup_queries = phase_.queries;
    timed.query_failures += phase_.query_failures;
    timed.checks = std::move(phase_.checks);
    phase_ = std::move(timed);
    tracer_ = tracer;
    stack_->channel().set_tracer(tracer_);
  }

  /// Every cloaked region the server stores (the buddy and
  /// public-over-private oracles' ground truth). Reads never change it.
  void RefreshStored() {
    stored_ = stack_->data_server().private_store().Overlapping(inputs_->space());
  }

  /// Deterministic counters: the first kCountPassQueries requests of a
  /// side stream, one at a time through CasperService::Evaluate (the
  /// call the batch engine's workers make), with a fresh default-sized
  /// query cache for the batched workloads. Untimed.
  void CountPass() {
    CasperService& service = stack_->service();
    std::unique_ptr<casper::processor::ConcurrentQueryCache> cache;
    if (spec_.batch_size > 0) {
      cache = std::make_unique<casper::processor::ConcurrentQueryCache>(
          &service.public_store(),
          casper::server::BatchEngineOptions{}.cache_capacity,
          service.options().filter_policy);
    }
    for (size_t i = 0; i < kCountPassQueries; ++i) {
      const BatchQueryRequest request = inputs_->Request(kCountPassBase + i);
      casper::anonymizer::CloakingResult cloak;
      if (casper::IsCloakedKind(request.kind)) {
        auto cloaked = service.anonymizer_tier().Cloak(request.uid);
        if (!cloaked.ok()) continue;
        cloak = cloaked.value();
      }
      const MeteredChannel::Totals before = stack_->channel().totals();
      auto response = service.Evaluate(request.ToRequest(), cloak, cache.get());
      if (!response.ok()) continue;
      const MeteredChannel::Totals after = stack_->channel().totals();
      KindCount& k = kinds_[static_cast<size_t>(request.kind)];
      ++k.queries;
      k.records += RecordsOf(response.value());
      k.request_bytes += after.query_request_bytes - before.query_request_bytes;
      k.response_bytes +=
          after.query_response_bytes - before.query_response_bytes;
    }
    if (cache != nullptr) {
      const auto stats = cache->stats();
      count_cache_hits_ = stats.hits;
      count_cache_lookups_ = stats.hits + stats.misses;
    }
  }

  void ReadOp(size_t op) {
    if (spec_.batch_size > 0) {
      BatchOp(op);
    } else {
      SingleOp(op);
    }
  }

  void BatchOp(size_t op) {
    std::vector<BatchQueryRequest> requests;
    requests.reserve(spec_.batch_size);
    for (size_t i = 0; i < spec_.batch_size; ++i) {
      requests.push_back(inputs_->Request(op * spec_.batch_size + i));
    }
    std::vector<BatchQueryResponse> responses;
    Stopwatch watch;
    if (tracer_ == nullptr) {
      casper::server::BatchResult result = stack_->engine().Execute(requests);
      phase_.op_wall_s.push_back(watch.ElapsedSeconds());
      phase_.batch_cloak_s += result.summary.cloak_seconds;
      phase_.batch_wall_s += result.summary.wall_seconds;
      phase_.pool_utilization_sum +=
          stack_->metrics().pool_utilization->Value();
      phase_.cache_hits = result.summary.cache.hits;
      phase_.cache_lookups = result.summary.cache.hits + result.summary.cache.misses;
      responses = std::move(result.responses);
    } else {
      responses = TracedBatch(requests);
      phase_.op_wall_s.push_back(watch.ElapsedSeconds());
    }
    phase_.op_queries.push_back(static_cast<double>(requests.size()));
    for (const BatchQueryResponse& response : responses) {
      ++phase_.queries;
      if (!response.ok()) {
        ++phase_.query_failures;
        continue;
      }
      phase_.records += RecordsOf(response.payload);
    }
    // A seeded sample of each batch goes to the oracles.
    casper::Rng rng(SubSeed(seed_, 5000 + op));
    for (int i = 0; i < 4; ++i) {
      const size_t slot = rng.UniformInt(0, requests.size() - 1);
      if (responses[slot].ok()) Check(requests[slot], responses[slot].payload);
    }
  }

  /// BatchQueryEngine::Execute's two phases, with spans.
  std::vector<BatchQueryResponse> TracedBatch(
      const std::vector<BatchQueryRequest>& requests) {
    CasperService& service = stack_->service();
    const size_t n = requests.size();
    const uint64_t first_id = request_id_ + 1;
    request_id_ += n;
    std::vector<BatchQueryResponse> responses(n);
    std::vector<std::optional<casper::anonymizer::CloakingResult>> cloaks(n);
    Tracer::Span root(tracer_, "batch", first_id);
    {
      Tracer::Span phase(tracer_, "batch.cloak_phase");
      for (size_t i = 0; i < n; ++i) {
        responses[i].kind = requests[i].kind;
        if (!casper::IsCloakedKind(requests[i].kind)) continue;
        Tracer::Span span(tracer_, "anonymizer.cloak", first_id + i);
        auto cloak = service.anonymizer_tier().Cloak(requests[i].uid);
        if (!cloak.ok()) {
          responses[i].status = cloak.status();
          continue;
        }
        cloaks[i] = std::move(cloak).value();
      }
    }
    Tracer::Span phase(tracer_, "batch.eval_phase");
    const uint32_t phase_id = phase.id();
    casper::ParallelForChunked(*pool_, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (casper::IsCloakedKind(requests[i].kind) && !cloaks[i].has_value()) {
          continue;
        }
        Tracer::Span span(tracer_, "query", first_id + i, phase_id);
        auto result = TracedEvaluate(
            service, tracer_, requests[i].ToRequest(),
            cloaks[i].value_or(casper::anonymizer::CloakingResult{}),
            cache_.get());
        responses[i].status = result.status();
        if (!result.ok()) continue;
        std::visit([&](auto&& payload) { responses[i].payload = std::move(payload); },
                   std::move(result).value());
      }
    });
    return responses;
  }

  void SingleOp(size_t op) {
    const BatchQueryRequest request = inputs_->Request(op);
    const casper::QueryRequest query = request.ToRequest();
    Stopwatch watch;
    Result<casper::QueryResponse> response =
        tracer_ == nullptr ? stack_->service().Execute(query)
                           : TracedExecute(request, query);
    phase_.op_wall_s.push_back(watch.ElapsedSeconds());
    phase_.op_queries.push_back(1.0);
    ++phase_.queries;
    if (!response.ok()) {
      ++phase_.query_failures;
      return;
    }
    phase_.records += RecordsOf(response.value());
    if (op % 8 == 0) Check(request, response.value());
  }

  /// CasperService::Execute: cloak, then Evaluate.
  Result<casper::QueryResponse> TracedExecute(const BatchQueryRequest& request,
                                              const casper::QueryRequest& query) {
    CasperService& service = stack_->service();
    Tracer::Span root(tracer_, "query", ++request_id_);
    casper::anonymizer::CloakingResult cloak;
    if (casper::IsCloakedKind(request.kind)) {
      Tracer::Span span(tracer_, "anonymizer.cloak");
      auto cloaked = service.anonymizer_tier().Cloak(request.uid);
      if (!cloaked.ok()) return cloaked.status();
      cloak = std::move(cloaked).value();
    }
    return TracedEvaluate(service, tracer_, query, cloak, nullptr);
  }

  template <typename Payload>
  void Check(const BatchQueryRequest& request, const Payload& payload) {
    const auto& targets = inputs_->targets();
    const Point position = positions_[request.uid];
    std::string verdict = std::visit(
        [&](const auto& r) -> std::string {
          using T = std::decay_t<decltype(r)>;
          namespace p = casper::processor;
          if constexpr (std::is_same_v<T, casper::PublicNNResponse>) {
            return CheckNearest(targets, position, r.server_answer.candidates,
                                r.exact);
          } else if constexpr (std::is_same_v<T, casper::PublicKnnResponse>) {
            return CheckKNearest(targets, position, request.k,
                                 r.server_answer.candidates, r.exact);
          } else if constexpr (std::is_same_v<T, casper::PublicRangeResponse>) {
            return CheckRange(targets, position, request.radius,
                              r.server_answer.candidates, r.exact);
          } else if constexpr (std::is_same_v<T, casper::PrivateNNResponse>) {
            auto self = stack_->service().anonymizer_tier().StripIdentity(
                request.ToRequest(), r.cloak);
            std::optional<uint64_t> handle;
            if (self.ok() && self->has_exclude) handle = self->exclude_handle;
            return CheckBuddy(stored_, handle, position,
                              r.server_answer.candidates, r.best);
          } else if constexpr (std::is_same_v<T, p::PublicNNCandidates>) {
            return CheckPublicNearest(stored_, request.point, r);
          } else if constexpr (std::is_same_v<T, p::RangeCountResult>) {
            return CheckRangeCount(stored_, request.region, r);
          } else {
            return "unexpected answer type";
          }
        },
        payload);
    phase_.checks.Add(verdict);
  }

  const Spec& spec_;
  Inputs* inputs_;
  Stack* stack_;
  Tracer* tracer_;
  const uint64_t seed_;
  std::vector<Point> positions_;  ///< Exact positions, as the bench moved them.
  std::vector<PrivateTarget> stored_;
  std::unique_ptr<casper::ThreadPool> pool_;  ///< Traced batches.
  std::unique_ptr<casper::processor::ConcurrentQueryCache> cache_;
  uint64_t request_id_ = 0;
  Phase phase_;
  KindCount kinds_[kKindCount];
  uint64_t count_cache_hits_ = 0;
  uint64_t count_cache_lookups_ = 0;
  double tick0_cu_ = 0.0;
  double tick0_repacks_ = 0.0;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintCounters(const Spec& spec, uint64_t seed, const Driver& driver) {
  std::printf("counters {\"workload\": \"%s\", \"seed\": %llu, "
              "\"queries\": %zu, \"kinds\": {",
              spec.name, static_cast<unsigned long long>(seed),
              kCountPassQueries);
  bool first = true;
  for (size_t k = 0; k < kKindCount; ++k) {
    const KindCount& c = driver.kind_counts()[k];
    if (c.queries == 0) continue;
    const double n = static_cast<double>(c.queries);
    std::printf("%s\"%s\": {\"queries\": %llu, \"records_per_query\": %.4f, "
                "\"request_bytes_per_query\": %.4f, "
                "\"response_bytes_per_query\": %.4f}",
                first ? "" : ", ", casper::obs::kQueryKindLabels[k],
                static_cast<unsigned long long>(c.queries), c.records / n,
                c.request_bytes / n, c.response_bytes / n);
    first = false;
  }
  const double lookups = static_cast<double>(driver.count_cache_lookups());
  std::printf("}, \"cache_lookups\": %llu, \"cache_hits_per_lookup\": %.6f, "
              "\"counter_updates_per_update\": %.6f, "
              "\"repacks_per_1k_updates\": %.6f}\n",
              static_cast<unsigned long long>(driver.count_cache_lookups()),
              lookups > 0 ? driver.count_cache_hits() / lookups : 0.0,
              driver.tick0_counter_updates_per_update(),
              driver.tick0_repacks_per_1k());
}

void Account(const Phase& phase, RunReport* report) {
  report->attempted += phase.queries + phase.warmup_queries +
                        phase.update_s.size() + phase.warmup_updates;
  report->failed += phase.query_failures + phase.update_failures;
  if (phase.checks.violations > 0 || phase.checks.checks == 0) {
    report->correct = false;
  }
  std::printf("checks %llu violations %llu\n",
              static_cast<unsigned long long>(phase.checks.checks),
              static_cast<unsigned long long>(phase.checks.violations));
  for (const std::string& example : phase.checks.examples) {
    std::printf("violation: %s\n", example.c_str());
  }
}

/// Per-request latency: a batch's requests all take the batch's wall.
std::vector<double> QueryLatenciesUs(const Phase& phase) {
  std::vector<double> latencies;
  for (size_t i = 0; i < phase.op_wall_s.size(); ++i) {
    latencies.insert(latencies.end(), static_cast<size_t>(phase.op_queries[i]),
                     phase.op_wall_s[i] * 1e6);
  }
  return latencies;
}

void EndToEndMetrics(const Spec& spec, const Phase& phase, double setup_s,
                     double peak_rss_mb, RunReport* report) {
  const std::vector<double> query_us = QueryLatenciesUs(phase);
  std::vector<double> update_us;
  for (double s : phase.update_s) update_us.push_back(s * 1e6);
  const size_t query_window = spec.batch_size > 0 ? 1 : 256;
  report->metrics = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"query_qps",
       MedianWindowRate(phase.op_wall_s, phase.op_queries, query_window),
       "1/s"},
      {"query_p50_us", MedianWindowQuantile(query_us, 0.50, kQueryLatencyWindow),
       "us"},
      {"query_p99_us", MedianWindowQuantile(query_us, 0.99, kQueryLatencyWindow),
       "us"},
      {"update_per_s", MedianWindowRate(phase.update_s, {}, 1000), "1/s"},
      {"update_p50_us",
       MedianWindowQuantile(update_us, 0.50, kUpdateLatencyWindow), "us"},
      {"update_p99_us",
       MedianWindowQuantile(update_us, 0.99, kUpdateLatencyWindow), "us"},
      {"candidates_per_query",
       phase.queries > 0 ? static_cast<double>(phase.records) /
                               static_cast<double>(phase.queries)
                         : 0.0,
       "count"},
  };
  std::printf("samples queries=%zu read_ops=%zu updates=%zu slices=%zu\n",
              query_us.size(), phase.op_wall_s.size(), update_us.size(),
              phase.ops_per_step.size());
}

/// Layer self times must cover all but this share of the traced
/// end-to-end time, or the run fails.
constexpr double kMaxUnattributed = 0.05;

void PerLayerMetrics(const Phase& untraced, const Phase& traced,
                     const SelfTimeReport& spans, const MeteredChannel::Totals& bytes,
                     RunReport* report) {
  auto per_call_us = [&spans](const char* name) {
    auto it = spans.layers.find(name);
    if (it == spans.layers.end() || it->second.calls == 0) return 0.0;
    return it->second.self_seconds * 1e6 / static_cast<double>(it->second.calls);
  };
  double compute_s = 0.0;
  uint64_t compute_calls = 0;
  for (const char* name : kComputeSpan) {
    auto it = spans.layers.find(name);
    if (it == spans.layers.end()) continue;
    compute_s += it->second.self_seconds;
    compute_calls += it->second.calls;
  }
  auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) total += x;
    return total;
  };
  const double untraced_s = sum(untraced.update_s) + sum(untraced.op_wall_s);
  const double traced_s = sum(traced.update_s) + sum(traced.op_wall_s);
  const double updates = static_cast<double>(untraced.update_s.size());
  const double batches = static_cast<double>(untraced.op_wall_s.size());
  const double query_calls = static_cast<double>(bytes.query_calls);
  const double snapshot_ms =
      spans.layers.count("anonymizer.snapshot") > 0
          ? spans.layers.at("anonymizer.snapshot").self_seconds * 1e3
          : 0.0;
  const double unattributed =
      spans.root_seconds > 0.0 ? spans.unattributed_seconds / spans.root_seconds
                               : 1.0;
  report->metrics = {
      {"anonymizer.cloak_us", per_call_us("anonymizer.cloak"), "us"},
      {"anonymizer.strip_us", per_call_us("anonymizer.strip"), "us"},
      {"anonymizer.refine_us", per_call_us("anonymizer.refine"), "us"},
      {"anonymizer.update_us", per_call_us("anonymizer.update"), "us"},
      {"anonymizer.counter_updates_per_update",
       untraced.pyramid_location_updates > 0
           ? static_cast<double>(untraced.pyramid_counter_updates) /
                 static_cast<double>(untraced.pyramid_location_updates)
           : 0.0,
       "count"},
      {"anonymizer.snapshot_ms", snapshot_ms, "ms"},
      {"transport.client_us", per_call_us("transport.client"), "us"},
      {"transport.channel_us", per_call_us("transport.channel"), "us"},
      {"transport.apply_us", per_call_us("transport.apply"), "us"},
      {"transport.request_bytes",
       query_calls > 0 ? bytes.query_request_bytes / query_calls : 0.0, "B"},
      {"transport.response_bytes",
       query_calls > 0 ? bytes.query_response_bytes / query_calls : 0.0, "B"},
      {"server.compute_us",
       compute_calls > 0 ? compute_s * 1e6 / static_cast<double>(compute_calls)
                         : 0.0,
       "us"},
      {"server.apply_us", per_call_us("server.apply"), "us"},
      {"server.candidates",
       traced.queries > 0 ? static_cast<double>(traced.records) /
                                static_cast<double>(traced.queries)
                          : 0.0,
       "count"},
      {"server.cache_hit_rate",
       untraced.cache_lookups > 0 ? static_cast<double>(untraced.cache_hits) /
                                        static_cast<double>(untraced.cache_lookups)
                                  : 0.0,
       "ratio"},
      {"spatial.repacks_per_1k_updates",
       updates > 0 ? 1000.0 * static_cast<double>(untraced.repacks) / updates
                   : 0.0,
       "count"},
      {"spatial.delta_entries",
       untraced.ops_per_step.empty()
           ? 0.0
           : untraced.delta_entries_sum /
                 static_cast<double>(untraced.ops_per_step.size()),
       "count"},
      {"batch.cloak_phase_frac",
       untraced.batch_wall_s > 0.0 ? untraced.batch_cloak_s / untraced.batch_wall_s
                                   : 0.0,
       "ratio"},
      {"batch.worker_busy_frac",
       batches > 0 && untraced.batch_wall_s > 0.0
           ? untraced.pool_utilization_sum / batches
           : 0.0,
       "ratio"},
      {"trace.overhead_frac", untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0,
       "ratio"},
      {"trace.unattributed_frac", unattributed, "ratio"},
  };
  if (unattributed > kMaxUnattributed) {
    std::printf("trace: layers cover only %.1f%% of the traced time\n",
                100.0 * (1.0 - unattributed));
    report->correct = false;
  }
}

void PrintLayerTable(const Spec& spec, const SelfTimeReport& spans,
                     const Phase& traced) {
  const double e2e = spans.root_seconds;
  std::printf("layer table: %s (%llu root spans, %.3f s traced end to end; "
              "%zu updates, %llu queries)\n",
              spec.name, static_cast<unsigned long long>(spans.roots), e2e,
              traced.update_s.size(),
              static_cast<unsigned long long>(traced.queries));
  std::printf("  %-34s %10s %12s %10s %9s %12s\n", "span", "calls",
              "self_us/call", "self_s", "self/e2e", "wait_us/call");
  for (const auto& [name, stat] : spans.layers) {
    const double calls = static_cast<double>(stat.calls);
    std::printf("  %-34s %10llu %12.3f %10.4f %8.1f%% %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(stat.calls),
                stat.self_seconds * 1e6 / calls, stat.self_seconds,
                e2e > 0.0 ? 100.0 * stat.self_seconds / e2e : 0.0,
                stat.wait_seconds * 1e6 / calls);
  }
  std::printf("  unattributed (root self time): %.4f s = %.2f%% of traced "
              "end to end (bound %.0f%%)\n",
              spans.unattributed_seconds,
              e2e > 0.0 ? 100.0 * spans.unattributed_seconds / e2e : 0.0,
              100.0 * kMaxUnattributed);
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

std::vector<std::string> SelfTestAnswerHeader() {
  std::vector<std::string> failures;
  casper::CandidateListMsg msg;
  msg.kind = casper::QueryKind::kRangePublic;
  msg.request_id = 0x0123456789ABCDEFull;
  msg.degraded = true;
  msg.processor_seconds = 1.25e-4;
  const std::string frame = casper::Encode(msg);
  const auto decoded = casper::DecodeCandidateListView(frame);
  const std::optional<AnswerHeader> peeked = PeekAnswerHeader(frame);
  if (!decoded.ok() || !peeked ||
      peeked->kind != static_cast<size_t>(decoded->kind) ||
      peeked->request_id != decoded->request_id ||
      peeked->processor_seconds != decoded->processor_seconds) {
    failures.push_back("answer header offsets");
  }
  if (PeekAnswerHeader(casper::Encode(casper::AckMsg{})) ||
      PeekAnswerHeader(std::string_view(frame).substr(0, 12))) {
    failures.push_back("answer header accepts a non-answer frame");
  }
  return failures;
}

RunReport RunWorkload(const RunOptions& options) {
  const Spec& spec = *FindSpec(options.workload);
  std::filesystem::create_directories(options.out_dir);
  Inputs inputs(spec, options.seed);
  RunReport report;

  if (!options.trace) {
    // Set up several times, before and after the measured loop, so the
    // samples catch the host at different moments; the median is
    // setup_s. One stack exists at a time, and the last one set up
    // before the loop is the one measured.
    constexpr int kSetupsBefore = 3;
    constexpr int kSetupsAfter = 4;
    casper::SummaryStats setup_s;
    auto set_up = [&] {
      Stopwatch watch;
      auto stack = std::make_unique<Stack>(spec, options.out_dir);
      const Status status = stack->Setup(inputs, nullptr);
      setup_s.Add(watch.ElapsedSeconds());
      Require(status, "set-up");
      return stack;
    };
    for (int i = 1; i < kSetupsBefore; ++i) set_up();
    std::unique_ptr<Stack> stack = set_up();
    Driver driver(spec, &inputs, stack.get(), nullptr, options.seed);
    driver.Run(options.seconds, nullptr, /*count_pass=*/true);
    // Peak memory of the measured stack, not of the set-ups after it.
    const double peak_rss_mb = PeakRssMb();
    stack.reset();
    for (int i = 0; i < kSetupsAfter; ++i) set_up();
    PrintCounters(spec, options.seed, driver);
    Account(driver.phase(), &report);
    EndToEndMetrics(spec, driver.phase(), setup_s.Quantile(0.5), peak_rss_mb,
                    &report);
    return report;
  }

  // Traced run: half the time untraced through the facade, then the
  // same stream replayed with spans on a fresh, identically set-up
  // stack; the difference is the tracing overhead.
  Phase untraced;
  {
    Stack stack(spec, options.out_dir);
    Require(stack.Setup(inputs, nullptr), "set-up");
    Driver driver(spec, &inputs, &stack, nullptr, options.seed);
    driver.Run(options.seconds / 2.0, nullptr, /*count_pass=*/true);
    PrintCounters(spec, options.seed, driver);
    Account(driver.phase(), &report);
    untraced = std::move(driver.phase());
  }
  Tracer tracer;
  Stack stack(spec, options.out_dir);
  Require(stack.Setup(inputs, &tracer), "traced set-up");
  Driver driver(spec, &inputs, &stack, &tracer, options.seed);
  driver.Run(0.0, &untraced, /*count_pass=*/false);
  Account(driver.phase(), &report);
  if (stack.channel().bad_answers() > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu query answers without a readable header\n",
                 static_cast<unsigned long long>(stack.channel().bad_answers()));
    report.correct = false;
  }
  const std::vector<SpanRecord> spans = tracer.Collect();
  const SelfTimeReport self_times = ComputeSelfTimes(spans);
  PrintLayerTable(spec, self_times, driver.phase());
  const std::string path = options.out_dir + "/" + spec.name + ".spans.tsv";
  constexpr size_t kMaxWrittenSpans = 500000;
  if (WriteSpans(spans, path, kMaxWrittenSpans)) {
    std::printf("spans: %zu of %zu written to %s\n",
                std::min(spans.size(), kMaxWrittenSpans), spans.size(),
                path.c_str());
  }
  PerLayerMetrics(untraced, driver.phase(), self_times,
                  stack.channel().totals(), &report);
  return report;
}

}  // namespace perfbench
