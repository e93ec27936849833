#include "replay.hpp"

#include <algorithm>
#include <map>
#include <span>

#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace svc = droplens::svc;
namespace net = droplens::net;

const char* const kSubstrates[7] = {"routed", "as0",  "irr", "allocated",
                                    "drop",   "rov",  "rir"};

namespace {

// Server::serve answers a single-date batch in chunks of this many queries
// and fans them out across the pool from this batch size up.
constexpr size_t kServeChunk = 512;
constexpr size_t kParallelThreshold = 256;

}  // namespace

Replayer::Replayer(svc::SnapshotStore& store, svc::Server& server,
                   droplens::util::ThreadPool* pool, Trace& trace)
    : store_(store), server_(server), pool_(pool), trace_(trace) {
  // The series Server registers, on the private registry.
  static constexpr const char* kFieldNames[svc::kFieldCount] = {
      "drop", "classification", "rov", "as0", "irr", "rir", "routed"};
  queries_ = registry_.counter("droplens_svc_queries_total");
  for (size_t f = 0; f < svc::kFieldCount; ++f) {
    field_lookups_[f] = registry_.counter("droplens_svc_field_lookups_total",
                                          {{"field", kFieldNames[f]}});
  }
}

void Replayer::count(uint64_t request, uint64_t serve_span,
                     const std::vector<uint8_t>& fields) {
  const int64_t c0 = now_ns();
  queries_.inc(fields.size());
  for (uint8_t requested : fields) {
    for (uint8_t f = 0; f < svc::kFieldCount; ++f) {
      if (requested & (uint8_t{1} << f)) field_lookups_[f].inc();
    }
  }
  const int64_t c1 = now_ns();
  trace_.add(serve_span, request, "count", c0, c1);
  totals_.count_ns += static_cast<double>(c1 - c0);
  totals_.counted_queries += fields.size();
}

std::shared_ptr<const svc::Snapshot> Replayer::resolve(net::Date d) {
  if (auto live = server_.snapshot(); live && live->date() == d) return live;
  return store_.get(d);
}

std::string Replayer::replay_frame(uint64_t request, uint64_t live_serve,
                                   const std::string& frame) {
  // Whichever runs first touches the request's data cold, and on small
  // frames cold costs the whole call more than the layer calls. An untimed
  // serve first puts both on the same warm footing.
  server_.serve(frame);
  const uint64_t serve_span =
      trace_.add(live_serve, request, "serve.replayed", 0, 0);
  std::string out = replay_layers(request, serve_span, frame);
  const int64_t s0 = now_ns();
  server_.serve(frame);
  trace_.set_times(serve_span, s0, now_ns());
  return out;
}

std::string Replayer::replay_layers(uint64_t request, uint64_t serve_span,
                                    const std::string& frame) {
  // What Server::serve does for every frame whatever it asks (framing, the
  // flight recorder's stages, request counters and histogram): the serve of
  // a query frame that asks nothing.
  static const std::string kEmptyFrame = svc::encode_query_request({});
  const int64_t f0 = now_ns();
  server_.serve(kEmptyFrame);
  const int64_t f1 = now_ns();
  trace_.add(serve_span, request, "fixed", f0, f1);
  totals_.fixed_ns += static_cast<double>(f1 - f0);
  ++totals_.fixed_frames;

  const svc::FrameHeader header = svc::decode_header(frame);
  const std::string_view payload = svc::frame_payload(frame);
  std::vector<std::pair<int64_t, int64_t>> gets;
  auto add_gets = [&](uint64_t answer_span) {
    for (const auto& [a, b] : gets) {
      trace_.add(answer_span, request, "store", a, b);
      totals_.store_ns += static_cast<double>(b - a);
      ++totals_.store_gets;
    }
  };

  if (header.type == svc::FrameType::kQueryRequest) {
    const int64_t d0 = now_ns();
    std::vector<svc::Query> queries = svc::decode_query_request(payload);
    const int64_t d1 = now_ns();
    trace_.add(serve_span, request, "decode", d0, d1);
    totals_.decode_ns += static_cast<double>(d1 - d0);
    totals_.decoded_queries += queries.size();

    const int64_t a0 = now_ns();
    std::map<net::Date, std::shared_ptr<const svc::Snapshot>> by_date;
    for (const svc::Query& q : queries) by_date.emplace(q.date, nullptr);
    for (auto& [date, snap] : by_date) {
      const int64_t g0 = now_ns();
      snap = resolve(date);
      gets.emplace_back(g0, now_ns());
    }
    svc::QueryResponse response;
    response.answers.resize(queries.size());
    if (!queries.empty()) {
      response.date = queries.front().date;
      if (const auto& first = by_date.find(queries.front().date)->second) {
        response.snapshot_version = first->version();
        response.degraded = first->degraded();
      }
    }
    const bool parallel = pool_ && queries.size() >= kParallelThreshold;
    if (by_date.size() == 1 && by_date.begin()->second) {
      const svc::Snapshot& s = *by_date.begin()->second;
      auto chunk = [&](size_t c) {
        const size_t begin = c * kServeChunk;
        const size_t end = std::min(queries.size(), begin + kServeChunk);
        net::Prefix prefixes[kServeChunk];
        uint8_t fields[kServeChunk];
        for (size_t i = begin; i < end; ++i) {
          prefixes[i - begin] = queries[i].prefix;
          fields[i - begin] = queries[i].fields;
        }
        s.lookup_batch(std::span<const net::Prefix>(prefixes, end - begin),
                       std::span<const uint8_t>(fields, end - begin),
                       std::span<svc::Answer>(response.answers.data() + begin,
                                              end - begin));
      };
      const size_t chunks = (queries.size() + kServeChunk - 1) / kServeChunk;
      if (parallel) {
        pool_->parallel_for(chunks, chunk);
      } else {
        for (size_t c = 0; c < chunks; ++c) chunk(c);
      }
    } else {
      auto one = [&](size_t i) {
        const svc::Snapshot* s = by_date.find(queries[i].date)->second.get();
        if (s) response.answers[i] = s->lookup(queries[i].prefix, queries[i].fields);
      };
      if (parallel) {
        pool_->parallel_for(queries.size(), one);
      } else {
        for (size_t i = 0; i < queries.size(); ++i) one(i);
      }
    }
    const int64_t a1 = now_ns();
    add_gets(trace_.add(serve_span, request, "answer", a0, a1));

    std::vector<uint8_t> counted;
    for (const svc::Query& q : queries) {
      if (by_date.find(q.date)->second) counted.push_back(q.fields);
    }
    count(request, serve_span, counted);

    const int64_t e0 = now_ns();
    std::string out = svc::encode_query_response(response);
    const int64_t e1 = now_ns();
    trace_.add(serve_span, request, "encode", e0, e1);
    totals_.encode_ns += static_cast<double>(e1 - e0);
    totals_.encoded_answers += response.answers.size();
    return out;
  } else if (header.type == svc::FrameType::kRangeRequest) {
    const int64_t d0 = now_ns();
    svc::RangeQuery rq = svc::decode_range_request(payload);
    const int64_t d1 = now_ns();
    trace_.add(serve_span, request, "decode", d0, d1);
    totals_.decode_ns += static_cast<double>(d1 - d0);
    ++totals_.decoded_queries;

    const int64_t a0 = now_ns();
    svc::RangeResponse response;
    response.prefix = rq.prefix;
    response.fields = rq.fields;
    for (int32_t dd = rq.begin.days(); dd <= rq.end.days(); ++dd) {
      const net::Date d(dd);
      const int64_t g0 = now_ns();
      std::shared_ptr<const svc::Snapshot> snap = resolve(d);
      gets.emplace_back(g0, now_ns());
      svc::Answer a;
      uint8_t degraded = 0;
      if (snap) {
        a = snap->lookup(rq.prefix, rq.fields);
        degraded = snap->degraded();
      } else {
        a.status = static_cast<uint8_t>(svc::QueryStatus::kUnavailable);
      }
      if (!response.runs.empty() && response.runs.back().degraded == degraded &&
          response.runs.back().answer == a) {
        ++response.runs.back().days;
      } else {
        response.runs.push_back(svc::RangeRun{d, 1, degraded, a});
      }
    }
    const int64_t a1 = now_ns();
    add_gets(trace_.add(serve_span, request, "answer", a0, a1));

    // Server counts every day in the range as a lookup, and the fields of
    // the days it could resolve; every replayed day resolves.
    count(request, serve_span,
          std::vector<uint8_t>(static_cast<size_t>(rq.end - rq.begin) + 1,
                               rq.fields));

    const int64_t e0 = now_ns();
    std::string out = svc::encode_range_response(response);
    const int64_t e1 = now_ns();
    trace_.add(serve_span, request, "encode", e0, e1);
    totals_.encode_ns += static_cast<double>(e1 - e0);
    ++totals_.encoded_answers;
    return out;
  } else if (header.type == svc::FrameType::kStatsRequest) {
    const int64_t a0 = now_ns();
    std::string out = svc::encode_stats_response(server_.stats());
    trace_.add(serve_span, request, "answer", a0, now_ns());
    return out;
  }
  return {};
}

void Replayer::search_split(uint64_t request, const svc::Snapshot& snap,
                            const std::vector<svc::Query>& queries) {
  constexpr size_t kChunk = 512;
  const size_t n = queries.size();
  std::vector<uint64_t> firsts(n);
  std::vector<net::Prefix> prefixes(n);
  std::vector<uint8_t> fields(n);
  for (size_t i = 0; i < n; ++i) {
    firsts[i] = queries[i].prefix.first();
    prefixes[i] = queries[i].prefix;
    fields[i] = queries[i].fields;
  }
  const svc::Snapshot::DropInfo* drop_v[kChunk];
  const uint8_t* value_v[kChunk];
  uint8_t flag_v[kChunk];
  // One pass of substrate `s` over the whole batch, chunk by chunk, the way
  // lookup_batch drives it.
  auto run = [&](int s) {
    for (size_t base = 0; base < n; base += kChunk) {
      const size_t len = std::min(kChunk, n - base);
      const std::span<const uint64_t> keys(firsts.data() + base, len);
      const std::span<const net::Prefix> chunk(prefixes.data() + base, len);
      switch (s) {
        case 0: snap.routed().intersects_batch(chunk, flag_v); break;
        case 1: snap.as0().intersects_batch(chunk, flag_v); break;
        case 2: snap.irr().intersects_batch(chunk, flag_v); break;
        case 3: snap.allocated().contains_batch(keys, flag_v); break;
        case 4: snap.drop().lookup_batch(keys, drop_v); break;
        case 5: snap.rov().lookup_batch(keys, value_v); break;
        case 6: snap.rir().lookup_batch(keys, value_v); break;
      }
    }
  };
  std::pair<int64_t, int64_t> times[7];
  for (int s = 0; s < 7; ++s) {
    const int64_t t0 = now_ns();
    run(s);
    times[s] = {t0, now_ns()};
  }
  std::vector<svc::Answer> out(n);
  const int64_t l0 = now_ns();
  snap.lookup_batch(prefixes, fields, out);
  const int64_t l1 = now_ns();
  const uint64_t root = trace_.add(0, request, "lookup_batch", l0, l1);
  totals_.lookup_batch_ns += static_cast<double>(l1 - l0);
  for (int s = 0; s < 7; ++s) {
    trace_.add(root, request, std::string("search.") + kSubstrates[s],
               times[s].first, times[s].second);
    totals_.search_ns[s] += static_cast<double>(times[s].second - times[s].first);
  }
  totals_.searched_queries += n;
}

}  // namespace perfbench
