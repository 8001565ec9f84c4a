#include "harness/passes.h"

#include <atomic>
#include <barrier>
#include <thread>
#include <unordered_map>

#include "rpc/client.h"
#include "rpc/protocol.h"

namespace directload::perfbench {

namespace {

/// Shared phase clock of one pass: the barrier between warm-up and the
/// measured phase stamps the start (and takes the start snapshot while
/// every client is idle).
struct PhaseClock {
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> end_ns{0};
};

rpc::Frame RequestFor(const WorkloadSpec& spec, const Op& op,
                      uint64_t request_id) {
  rpc::Frame request;
  request.request_id = request_id;
  request.key = KeyOf(op.key);
  if (op.write) {
    request.op = rpc::Opcode::kPut;
    request.version = op.id;
    request.value = ValueFor(request.key, op.id, spec.value_bytes);
  } else {
    request.op = rpc::Opcode::kGet;
    request.latest = true;
  }
  return request;
}

/// Records the answer to one op: latency, ledger outcome, and the checks
/// that need no other client's state.
void Answer(const WorkloadSpec& spec, const Op& op, const Status& status,
            const std::string& value, bool measured, double micros,
            int64_t done_ns, ClientOut* out) {
  if (measured) {
    (op.write ? out->writes_us : out->reads_us).Add(micros);
    out->done_ns.push_back(done_ns);
  }
  if (!status.ok()) {
    // Every read targets a preloaded key, so NotFound is a failure too.
    out->ledger.Record(Classify(status, /*key_was_written=*/true), status);
    return;
  }
  if (op.write) {
    out->acked.push_back(op.id);
    out->ledger.Record(Outcome::kOk, status);
    return;
  }
  uint64_t version = 0;
  const bool right = CheckRead(
      value, KeyOf(op.key), spec.value_bytes,
      [](uint64_t) { return true; }, &version);
  if (!right) {
    out->ledger.Record(Outcome::kWrong, status);
    return;
  }
  out->ledger.Record(Outcome::kOk, status);
  out->read_versions.emplace_back(op.key, version);
}

class PhaseGate {
 public:
  PhaseGate(const PassPlan& plan, int thread, int threads,
            const PhaseClock* clock)
      : plan_(plan), thread_(thread), clock_(clock) {
    warm_end_ns_ = NowNs() + static_cast<int64_t>(plan.warm_s * 1e9);
    // The op budget is split evenly; the first clients take the remainder.
    max_measured_ = plan.max_ops / threads +
                    (static_cast<uint64_t>(thread) < plan.max_ops % threads);
  }
  /// May the client, having issued `issued` ops of which `warm` in the
  /// warm-up, issue another op in this phase?
  bool MayIssue(bool measured, uint64_t issued, uint64_t warm) const {
    if (plan_.by_count) {
      return issued < (measured ? plan_.total[thread_] : plan_.warm[thread_]);
    }
    if (measured && plan_.max_ops > 0 && issued - warm >= max_measured_) {
      return false;
    }
    return NowNs() < (measured ? clock_->end_ns.load() : warm_end_ns_);
  }

 private:
  const PassPlan& plan_;
  int thread_;
  const PhaseClock* clock_;
  int64_t warm_end_ns_;
  uint64_t max_measured_;
};

template <typename Barrier>
void WireClient(const WorkloadSpec& spec, uint64_t seed, int t,
                const Target& target, const PassPlan& plan, bool traced,
                const PhaseClock* clock, Barrier* sync, ClientOut* out) {
  rpc::RpcClient client("127.0.0.1", target.port);
  OpStream stream(spec, seed, t);
  PhaseGate gate(plan, t, spec.clients, clock);
  struct InFlight {
    Op op;
    rpc::Frame request;
    int64_t sent_ns = 0;
    bool measured = false;
  };
  std::unordered_map<uint64_t, InFlight> in_flight;
  uint64_t issued = 0;

  auto fail_all = [&](const Status& s) {
    for (auto& [id, f] : in_flight) {
      Answer(spec, f.op, s, "", false, 0, 0, out);
    }
    in_flight.clear();
  };
  auto run = [&](bool measured) {
    while (true) {
      while (static_cast<int>(in_flight.size()) < spec.pipeline &&
             gate.MayIssue(measured, issued, out->warm)) {
        const Op op = stream.Next();
        out->ops.push_back(op);
        ++issued;
        InFlight f{op, RequestFor(spec, op, client.NextRequestId()), 0,
                   measured};
        f.sent_ns = NowNs();
        if (Status s = client.Send(f.request); !s.ok()) {
          Answer(spec, op, s, "", false, 0, 0, out);
          continue;
        }
        in_flight.emplace(f.request.request_id, std::move(f));
      }
      if (in_flight.empty()) return;
      Result<rpc::Frame> response = client.Receive();
      if (!response.ok()) {
        fail_all(response.status());
        continue;
      }
      auto it = in_flight.find(response->request_id);
      if (it == in_flight.end()) continue;
      const int64_t done_ns = NowNs();
      const InFlight& f = it->second;
      if (traced) {
        Tracer::Get().Record(Span{"rpc.call", Tracer::Get().NextId(), 0,
                                  f.op.id, f.sent_ns, done_ns});
        if (f.measured) out->codec.Time(f.request, *response);
      }
      const Status status =
          response->status == StatusCode::kOk
              ? Status::OK()
              : rpc::StatusFromWire(response->status, response->value);
      Answer(spec, f.op, status, response->value, f.measured,
             (done_ns - f.sent_ns) * 1e-3, done_ns, out);
      in_flight.erase(it);
    }
  };
  run(false);
  out->warm = issued;
  sync->arrive_and_wait();
  run(true);
  out->total = issued;
}

/// One op through a synchronous entry point, with the entry's span.
Status ExecDirect(const WorkloadSpec& spec, const Target& target, const Op& op,
                  std::string* value, double* sim_us) {
  const std::string key = KeyOf(op.key);
  switch (target.entry) {
    case Entry::kMint: {
      if (op.write) {
        SpanScope span("mint.put");
        return target.cluster->Put(
            key, op.id, ValueFor(key, op.id, spec.value_bytes));
      }
      SpanScope span("mint.get");
      Result<mint::MintCluster::ReadResult> r =
          target.cluster->GetLatest(key);
      if (!r.ok()) return r.status();
      *value = std::move(r->value);
      *sim_us = r->latency_micros;
      return Status::OK();
    }
    case Entry::kEngine: {
      if (op.write) {
        SpanScope span("qindb.put");
        return target.db->Put(key, op.id,
                              ValueFor(key, op.id, spec.value_bytes));
      }
      SpanScope span("qindb.get");
      Result<std::string> r = target.db->GetLatest(key);
      if (!r.ok()) return r.status();
      *value = std::move(r).value();
      return Status::OK();
    }
    case Entry::kWire:
      break;
  }
  return Status::InvalidArgument("not a direct entry point");
}

template <typename Barrier>
void DirectClient(const WorkloadSpec& spec, uint64_t seed, int t,
                  const Target& target, const PassPlan& plan,
                  const PhaseClock* clock, Barrier* sync, ClientOut* out) {
  OpStream stream(spec, seed, t);
  PhaseGate gate(plan, t, spec.clients, clock);
  uint64_t issued = 0;
  auto run = [&](bool measured) {
    while (gate.MayIssue(measured, issued, out->warm)) {
      const Op op = stream.Next();
      out->ops.push_back(op);
      ++issued;
      SetCurrentOp(op.id);
      std::string value;
      double sim_us = -1;
      const int64_t start = NowNs();
      const Status s = ExecDirect(spec, target, op, &value, &sim_us);
      const int64_t done = NowNs();
      SetCurrentOp(0);
      if (measured && sim_us >= 0) out->sim_read_us.Add(sim_us);
      Answer(spec, op, s, value, measured, (done - start) * 1e-3, done, out);
    }
  };
  run(false);
  out->warm = issued;
  sync->arrive_and_wait();
  run(true);
  out->total = issued;
}

}  // namespace

void CodecTimes::Time(const rpc::Frame& request, const rpc::Frame& response) {
  std::string bytes;
  int64_t t0 = NowNs();
  rpc::EncodeFrame(request, &bytes);
  encode_ns.Add(static_cast<double>(NowNs() - t0));
  wire_bytes += bytes.size();
  bytes.clear();
  rpc::EncodeFrame(response, &bytes);
  wire_bytes += bytes.size();
  rpc::FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  rpc::Frame decoded;
  t0 = NowNs();
  const Result<bool> got = decoder.Next(&decoded);
  const int64_t decode_ns_taken = NowNs() - t0;
  // A frame this process just encoded always decodes whole.
  if (got.ok() && *got) decode_ns.Add(static_cast<double>(decode_ns_taken));
}

void CodecTimes::Merge(const CodecTimes& other) {
  encode_ns.Merge(other.encode_ns);
  decode_ns.Merge(other.decode_ns);
  wire_bytes += other.wire_bytes;
}

std::vector<uint64_t> PassOut::WarmCounts() const {
  std::vector<uint64_t> v;
  for (const ClientOut& c : clients) v.push_back(c.warm);
  return v;
}

std::vector<uint64_t> PassOut::TotalCounts() const {
  std::vector<uint64_t> v;
  for (const ClientOut& c : clients) v.push_back(c.total);
  return v;
}

bool PassOut::Measured(uint64_t op_id) const {
  const int t = OpThread(op_id);
  if (t < 0 || t >= static_cast<int>(clients.size())) return false;
  const uint64_t seq = OpSeq(op_id);
  return seq >= clients[t].warm && seq < clients[t].total;
}

PassOut RunClosedLoop(const WorkloadSpec& spec, uint64_t seed,
                      const Target& target, const PassPlan& plan,
                      bool traced) {
  PassOut pass;
  pass.clients.resize(spec.clients);
  PhaseClock clock;
  auto on_measure_start = [&]() noexcept {
    if (target.snapshot) pass.at_start = target.snapshot();
    const int64_t now = NowNs();
    clock.start_ns.store(now);
    clock.end_ns.store(now + static_cast<int64_t>(plan.measure_s * 1e9));
  };
  std::barrier sync(spec.clients, on_measure_start);
  Tracer::Get().set_enabled(traced);
  std::vector<std::thread> threads;
  for (int t = 0; t < spec.clients; ++t) {
    threads.emplace_back([&, t] {
      if (target.entry == Entry::kWire) {
        WireClient(spec, seed, t, target, plan, traced, &clock, &sync,
                   &pass.clients[t]);
      } else {
        DirectClient(spec, seed, t, target, plan, &clock, &sync,
                     &pass.clients[t]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t end_ns = NowNs();
  Tracer::Get().set_enabled(false);
  if (traced) pass.spans = Tracer::Get().Drain();
  if (target.snapshot) pass.at_end = target.snapshot();
  pass.wall_s = (end_ns - clock.start_ns.load()) * 1e-9;
  for (const ClientOut& c : pass.clients) {
    pass.ledger.Merge(c.ledger);
    pass.reads_us.Merge(c.reads_us);
    pass.writes_us.Merge(c.writes_us);
    pass.done_ns.insert(pass.done_ns.end(), c.done_ns.begin(),
                        c.done_ns.end());
    pass.measured_ops += c.total - c.warm;
  }
  CheckReadVersions(spec, &pass);
  return pass;
}

uint64_t CheckReadVersions(const WorkloadSpec& spec, PassOut* pass) {
  uint64_t wrong = 0;
  for (const ClientOut& c : pass->clients) {
    for (const auto& [key, version] : c.read_versions) {
      bool right = false;
      if (version == 1) {
        right = key < static_cast<uint32_t>(spec.keys);
      } else {
        const int t = OpThread(version);
        const uint64_t seq = OpSeq(version);
        right = t >= 0 && t < static_cast<int>(pass->clients.size()) &&
                seq < pass->clients[t].ops.size() &&
                pass->clients[t].ops[seq].write &&
                pass->clients[t].ops[seq].key == key;
      }
      if (!right) ++wrong;
    }
  }
  pass->ledger.ok -= wrong;
  pass->ledger.wrong += wrong;
  return wrong;
}

void ReadBackAcked(const WorkloadSpec& spec, const Target& target,
                   size_t limit, PassOut* pass, Samples* reads_us) {
  std::vector<std::pair<uint32_t, uint64_t>> acked;
  for (const ClientOut& c : pass->clients) {
    for (uint64_t id : c.acked) {
      acked.emplace_back(c.ops[OpSeq(id)].key, id);
    }
  }
  std::vector<std::pair<uint32_t, uint64_t>> picked;
  const size_t stride =
      limit == 0 || acked.size() <= limit ? 1 : acked.size() / limit;
  for (size_t i = 0; i < acked.size(); i += stride) picked.push_back(acked[i]);

  const int threads = spec.clients;
  std::vector<Ledger> ledgers(threads);
  std::vector<Samples> samples(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::unique_ptr<rpc::RpcClient> client;
      if (target.entry == Entry::kWire) {
        client = std::make_unique<rpc::RpcClient>("127.0.0.1", target.port);
      }
      for (size_t i = t; i < picked.size(); i += threads) {
        const std::string key = KeyOf(picked[i].first);
        const uint64_t version = picked[i].second;
        const int64_t start = NowNs();
        Status s;
        std::string value;
        if (client != nullptr) {
          Result<std::string> r = client->Get(key, version);
          if (r.ok()) value = std::move(r).value(); else s = r.status();
        } else {
          Result<mint::MintCluster::ReadResult> r =
              target.cluster->Get(key, version);
          if (r.ok()) value = std::move(r->value); else s = r.status();
        }
        samples[t].Add((NowNs() - start) * 1e-3);
        if (!s.ok()) {
          ledgers[t].Record(Classify(s, /*key_was_written=*/true), s);
        } else if (value != ValueFor(key, version, spec.value_bytes)) {
          ledgers[t].Record(Outcome::kWrong, s);
        } else {
          ledgers[t].Record(Outcome::kOk, s);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < threads; ++t) {
    pass->ledger.Merge(ledgers[t]);
    if (reads_us != nullptr) reads_us->Merge(samples[t]);
  }
}

}  // namespace directload::perfbench
