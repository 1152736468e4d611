// Wire codec differential suite (DESIGN.md §4.9).
//
// The broadcast plane's contract has three legs, each pinned here:
//  1. Canonical roundtrip: for every registered frame type,
//     decode(encode(m)) re-encodes to byte-identical bytes.
//  2. Byzantine rejection: truncated prefixes, trailing bytes, forged
//     counts, non-canonical element order and over-deep qsets decode to
//     nullptr — never to UB (the fuzz loop runs the decoder over mutated
//     frames under the sanitizer jobs).
//  3. Pool + cache invariants: make_message inside a MessagePool::Scope
//     draws from the slab arena with wholesale reuse, the frame cache
//     encodes exactly once per message object, and pooling is invisible to
//     the determinism contract (fingerprint/metrics identity, pool on/off
//     x shard counts).
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bftcup/bftcup_node.hpp"
#include "bftcup/pbft.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/wire_codecs.hpp"
#include "cup/messages.hpp"
#include "scp/envelope.hpp"
#include "scp/ledger.hpp"
#include "sim/message.hpp"
#include "sim/message_pool.hpp"
#include "sim/wire.hpp"

namespace scup {
namespace {

using sim::MessagePtr;
using sim::WireReader;
using sim::WireWriter;

class WireCodecTest : public ::testing::Test {
 protected:
  void SetUp() override { core::register_wire_codecs(); }
};

/// The frame of a message via the public cache path.
std::vector<std::uint8_t> frame_of(const sim::Message& m) {
  const auto [data, size] = m.wire_frame();
  EXPECT_NE(data, nullptr);
  return std::vector<std::uint8_t>(data, data + size);
}

fbqs::QSet sample_qset() {
  return fbqs::QSet(2, {1, 5, 9},
                    {fbqs::QSet::threshold_of(1, std::vector<ProcessId>{2, 3}),
                     fbqs::QSet::threshold_of(2, std::vector<ProcessId>{4, 6, 7})});
}

/// One representative instance of every registered wire type (several for
/// Envelope: one per statement kind).
std::vector<MessagePtr> sample_messages() {
  std::vector<MessagePtr> out;
  const NodeSet pd(12, {0, 3, 4, 7, 11});

  out.push_back(sim::make_message<cup::DiscoverMsg>(
      cup::PdCertificate{2, pd}));
  out.push_back(sim::make_message<cup::CertGossipMsg>(
      std::vector<cup::PdCertificate>{{0, pd}, {3, NodeSet(12)}, {7, pd}}));
  out.push_back(sim::make_message<cup::KnownMsg>(pd));
  out.push_back(sim::make_message<cup::GetSinkMsg>(ProcessId{9}));
  out.push_back(sim::make_message<cup::SinkValueMsg>(NodeSet(12, {1, 2})));

  const fbqs::QSet qset = sample_qset();
  scp::NominateStmt nom;
  nom.voted = {1001, 1005};
  nom.accepted = {1001};
  out.push_back(sim::make_message<scp::Envelope>(1, 4, qset,
                                                 scp::Statement{nom}));
  scp::PrepareStmt prep;
  prep.b = {3, 1001};
  prep.p = {2, 1001};
  prep.p_prime = {1, 1003};
  prep.c_n = 1;
  prep.h_n = 3;
  out.push_back(sim::make_message<scp::Envelope>(5, 7, qset,
                                                 scp::Statement{prep}));
  scp::ConfirmStmt conf;
  conf.b = {4, 1001};
  conf.p_n = 4;
  conf.c_n = 2;
  conf.h_n = 4;
  out.push_back(sim::make_message<scp::Envelope>(9, 11, qset,
                                                 scp::Statement{conf}));
  scp::ExternalizeStmt ext;
  ext.commit = {4, 1001};
  ext.h_n = 6;
  out.push_back(sim::make_message<scp::Envelope>(2, 13, qset,
                                                 scp::Statement{ext}));
  out.push_back(sim::make_message<scp::SlotEnvelope>(
      3, scp::Envelope(1, 4, qset, scp::Statement{nom})));

  out.push_back(sim::make_message<bftcup::PrePrepareMsg>(2, Value{1004}));
  out.push_back(sim::make_message<bftcup::PrepareMsg>(2, Value{1004},
                                                      std::uint64_t{77}));
  out.push_back(sim::make_message<bftcup::CommitMsg>(2, Value{1004},
                                                     std::uint64_t{78}));
  bftcup::ViewChangeRecord rec;
  rec.sender = 4;
  rec.new_view = 3;
  rec.prepared_view = 2;
  rec.prepared_value = 1004;
  rec.prepare_cert = {{1, 11}, {2, 22}, {4, 44}};
  rec.token = 99;
  out.push_back(sim::make_message<bftcup::ViewChangeMsg>(rec));
  bftcup::ViewChangeRecord empty_rec;
  empty_rec.sender = 6;
  empty_rec.new_view = 3;
  empty_rec.token = 5;
  out.push_back(sim::make_message<bftcup::NewViewMsg>(
      3, Value{1004}, std::vector<bftcup::ViewChangeRecord>{rec, empty_rec}));
  out.push_back(sim::make_message<bftcup::DecisionRequestMsg>(ProcessId{8}));
  out.push_back(sim::make_message<bftcup::DecisionMsg>(Value{1004}));
  return out;
}

TEST_F(WireCodecTest, RegistryCoversEveryFamily) {
  const auto types = sim::WireCodecRegistry::registered_types();
  EXPECT_EQ(types.size(), 14u);
  for (const std::uint16_t t : types) {
    EXPECT_NE(sim::WireCodecRegistry::find(t), nullptr);
    EXPECT_NE(sim::WireCodecRegistry::name_of(t), nullptr);
  }
  EXPECT_EQ(sim::WireCodecRegistry::find(0xfffe), nullptr);
}

TEST_F(WireCodecTest, ReRegisteringTheSameEntryIsIdempotent) {
  core::register_wire_codecs();
  EXPECT_NO_THROW(sim::WireCodecRegistry::register_type(
      cup::kWireTypeDiscover, "cup.discover", &cup::DiscoverMsg::wire_decode));
  EXPECT_EQ(sim::WireCodecRegistry::registered_types().size(), 14u);
  EXPECT_EQ(sim::WireCodecRegistry::find(cup::kWireTypeDiscover),
            &cup::DiscoverMsg::wire_decode);
}

TEST_F(WireCodecTest, ConflictingRegistrationThrows) {
  // A second decoder or a second name on a taken id would decode frames as
  // the wrong type; the first entry must survive the rejected claim.
  EXPECT_THROW(sim::WireCodecRegistry::register_type(
                   cup::kWireTypeDiscover, "cup.discover",
                   &cup::KnownMsg::wire_decode),
               std::logic_error);
  EXPECT_THROW(sim::WireCodecRegistry::register_type(
                   cup::kWireTypeDiscover, "cup.other",
                   &cup::DiscoverMsg::wire_decode),
               std::logic_error);
  EXPECT_EQ(sim::WireCodecRegistry::find(cup::kWireTypeDiscover),
            &cup::DiscoverMsg::wire_decode);
  EXPECT_STREQ(sim::WireCodecRegistry::name_of(cup::kWireTypeDiscover),
               "cup.discover");
}

TEST_F(WireCodecTest, TestTypeRangeAvoidsEveryProductionId) {
  const std::vector<std::uint16_t> production = {
      cup::kWireTypeDiscover,          cup::kWireTypeCertGossip,
      cup::kWireTypeKnown,             cup::kWireTypeGetSink,
      cup::kWireTypeSinkValue,         scp::kWireTypeEnvelope,
      scp::kWireTypeSlotEnvelope,      bftcup::kWireTypePrePrepare,
      bftcup::kWireTypePrepare,        bftcup::kWireTypeCommit,
      bftcup::kWireTypeViewChange,     bftcup::kWireTypeNewView,
      bftcup::kWireTypeDecisionRequest, bftcup::kWireTypeDecision};
  // The list above (ascending) is the registry's full table, so a new
  // production codec cannot slip into the test range unnoticed.
  EXPECT_EQ(sim::WireCodecRegistry::registered_types(), production);
  ASSERT_LE(sim::kWireTestTypeFirst, sim::kWireTestTypeLast);
  for (std::uint32_t id = sim::kWireTestTypeFirst;
       id <= sim::kWireTestTypeLast; ++id) {
    for (const std::uint16_t prod : production) {
      EXPECT_NE(id, prod);
    }
  }
}

TEST_F(WireCodecTest, RoundtripReencodesByteIdentically) {
  for (const MessagePtr& msg : sample_messages()) {
    SCOPED_TRACE(msg->type_name());
    const std::vector<std::uint8_t> frame = frame_of(*msg);
    ASSERT_GE(frame.size(), 2u);
    const MessagePtr decoded = sim::decode_frame(frame);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->wire_type(), msg->wire_type());
    EXPECT_EQ(decoded->type_name(), msg->type_name());
    // Canonical encoding: the decoded copy re-encodes to the same bytes.
    EXPECT_EQ(frame_of(*decoded), frame);
    // The exact frame size is what traffic accounting now charges.
    EXPECT_EQ(msg->send_size().bytes, frame.size());
  }
}

TEST_F(WireCodecTest, TruncatedPrefixesAreRejected) {
  for (const MessagePtr& msg : sample_messages()) {
    SCOPED_TRACE(msg->type_name());
    const std::vector<std::uint8_t> frame = frame_of(*msg);
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_EQ(sim::decode_frame(frame.data(), len), nullptr)
          << "prefix of length " << len << " decoded";
    }
  }
}

TEST_F(WireCodecTest, TrailingBytesAreRejected) {
  for (const MessagePtr& msg : sample_messages()) {
    SCOPED_TRACE(msg->type_name());
    std::vector<std::uint8_t> frame = frame_of(*msg);
    frame.push_back(0);
    EXPECT_EQ(sim::decode_frame(frame), nullptr);
  }
}

TEST_F(WireCodecTest, UnknownTypeIsRejected) {
  std::vector<std::uint8_t> frame;
  WireWriter w(frame);
  w.u16(0xfffe);
  w.u32(1);
  EXPECT_EQ(sim::decode_frame(frame), nullptr);
}

TEST_F(WireCodecTest, NonCanonicalNodeSetOrderIsRejected) {
  // KnownMsg frame with descending ids: u16 type ++ u32 universe ++
  // u32 count ++ ids.
  std::vector<std::uint8_t> frame;
  WireWriter w(frame);
  w.u16(cup::kWireTypeKnown);
  w.u32(8);  // universe
  w.u32(2);  // count
  w.u32(5);
  w.u32(3);  // descending: must be rejected
  EXPECT_EQ(sim::decode_frame(frame), nullptr);
}

TEST_F(WireCodecTest, NominateFrameIsGoldenAndValueListsMustAscend) {
  // A fixed NOMINATE's frame, recorded when NominateStmt held std::set
  // value lists: the sorted-vector statement must encode byte-identically.
  const fbqs::QSet qset =
      fbqs::QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2});
  const auto envelope_frame = [&](std::vector<Value> voted,
                                  std::vector<Value> accepted) {
    const scp::Envelope env(3, 9, qset,
                            scp::Statement{scp::NominateStmt{
                                std::move(voted), std::move(accepted)}});
    std::vector<std::uint8_t> frame;
    WireWriter w(frame);
    w.u16(scp::kWireTypeEnvelope);
    scp::wire_put_envelope(w, env);
    return frame;
  };
  const std::vector<std::uint8_t> frame =
      envelope_frame({7, 1001, 0x0102030405060708u}, {1001});
  std::string hex;
  for (const std::uint8_t b : frame) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  EXPECT_EQ(hex,
            "1000"                                      // frame type 16
            "03000000" "0900000000000000"               // sender, seq
            "02000000" "03000000" "000000000100000002000000"
            "00000000"                                  // qset 2-of-{0,1,2}
            "00"                                        // NOMINATE
            "03000000" "0700000000000000" "e903000000000000"
            "0807060504030201"                          // voted
            "01000000" "e903000000000000");             // accepted
  const MessagePtr decoded = sim::decode_frame(frame);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(frame_of(*decoded), frame);

  // Out-of-order and duplicate lists are not canonical: rejected.
  EXPECT_EQ(sim::decode_frame(envelope_frame({1001, 7}, {})), nullptr);
  EXPECT_EQ(sim::decode_frame(envelope_frame({7, 7}, {})), nullptr);
  EXPECT_EQ(sim::decode_frame(envelope_frame({7}, {1001, 1001})), nullptr);
  EXPECT_EQ(sim::decode_frame(envelope_frame({7}, {1001, 8})), nullptr);
}

TEST_F(WireCodecTest, CertGossipFrameIsGoldenAndOwnersMustAscend) {
  // u16 type ++ u32 count ++ per entry (u32 owner ++ NodeSet), owners in
  // strictly ascending order.
  const cup::CertGossipMsg msg(std::vector<cup::PdCertificate>{
      {0, NodeSet(4, {1, 3})}, {2, NodeSet(4)}});
  const std::vector<std::uint8_t> frame = frame_of(msg);
  std::string hex;
  for (const std::uint8_t b : frame) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  EXPECT_EQ(hex,
            "0200" "02000000"                               // type 2, 2 certs
            "00000000" "04000000" "02000000" "0100000003000000"  // 0: {1,3}
            "02000000" "04000000" "00000000");              // 2: {}
  const MessagePtr decoded = sim::decode_frame(frame);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(frame_of(*decoded), frame);

  // Duplicate and descending owners are not canonical: rejected.
  const auto gossip_frame = [](std::initializer_list<ProcessId> owners) {
    std::vector<std::uint8_t> out;
    WireWriter w(out);
    w.u16(cup::kWireTypeCertGossip);
    w.u32(static_cast<std::uint32_t>(owners.size()));
    for (const ProcessId owner : owners) {
      w.u32(owner);
      w.node_set(NodeSet(4, {1}));
    }
    return out;
  };
  EXPECT_NE(sim::decode_frame(gossip_frame({1, 3})), nullptr);
  EXPECT_EQ(sim::decode_frame(gossip_frame({3, 3})), nullptr);
  EXPECT_EQ(sim::decode_frame(gossip_frame({3, 1})), nullptr);
}

TEST_F(WireCodecTest, ForgedCountCannotForceAllocation) {
  // A CertGossip frame claiming 2^31 entries in a 10-byte buffer: fits()
  // must reject it before any container reservation.
  std::vector<std::uint8_t> frame;
  WireWriter w(frame);
  w.u16(cup::kWireTypeCertGossip);
  w.u32(0x8000'0000u);
  w.u32(0);
  EXPECT_EQ(sim::decode_frame(frame), nullptr);

  // Same for a NodeSet count exceeding the byte budget.
  std::vector<std::uint8_t> frame2;
  WireWriter w2(frame2);
  w2.u16(cup::kWireTypeKnown);
  w2.u32(0xffff'ffffu);  // universe
  w2.u32(0x4000'0000u);  // count: way past the remaining bytes
  EXPECT_EQ(sim::decode_frame(frame2), nullptr);
}

TEST_F(WireCodecTest, OverDeepQsetIsRejected) {
  // Hand-encode an Envelope whose qset nests past kWireMaxQsetDepth:
  // each level is threshold=1, no validators, one inner set.
  std::vector<std::uint8_t> frame;
  WireWriter w(frame);
  w.u16(scp::kWireTypeEnvelope);
  w.u32(1);   // sender
  w.u64(1);   // seq
  for (std::size_t d = 0; d <= scp::kWireMaxQsetDepth + 1; ++d) {
    w.u32(1);  // threshold
    w.u32(0);  // no validators
    w.u32(1);  // one inner set
  }
  w.u32(0);  // innermost: threshold 0, then truncation does the rest
  EXPECT_EQ(sim::decode_frame(frame), nullptr);
}

TEST_F(WireCodecTest, MutationFuzzNeverCrashesAndStaysCanonical) {
  // Byte-level mutations of valid frames: every outcome must be either a
  // clean nullptr or a message that re-encodes canonically. Deterministic
  // stream so failures replay.
  StreamRng rng(0x5c0dec16u);
  const auto samples = sample_messages();
  for (const MessagePtr& msg : samples) {
    const std::vector<std::uint8_t> base = frame_of(*msg);
    for (int round = 0; round < 200; ++round) {
      std::vector<std::uint8_t> frame = base;
      const int mutations = 1 + static_cast<int>(rng.next_u64() % 4);
      for (int m = 0; m < mutations; ++m) {
        const std::size_t pos = rng.next_u64() % frame.size();
        frame[pos] = static_cast<std::uint8_t>(rng.next_u64());
      }
      const MessagePtr decoded = sim::decode_frame(frame);
      if (decoded != nullptr) {
        // Accepted mutants must still be canonical fixed points.
        EXPECT_EQ(frame_of(*decoded), frame) << msg->type_name();
      }
    }
  }
}

TEST_F(WireCodecTest, FrameCacheEncodesOncePerMessage) {
  const MessagePtr msg = sim::make_message<cup::GetSinkMsg>(ProcessId{3});
  const auto first = msg->send_size();
  EXPECT_TRUE(first.encoded_now);
  const auto second = msg->send_size();
  EXPECT_FALSE(second.encoded_now);  // served from the cache
  EXPECT_EQ(second.bytes, first.bytes);
  // The cached frame is stable storage: same pointer on every call.
  const auto [p1, s1] = msg->wire_frame();
  const auto [p2, s2] = msg->wire_frame();
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(s1, s2);
}

// ---- MessagePool ----

TEST(MessagePoolTest, SteadyStateReusesSlabsWholesale) {
  sim::MessagePool pool;
  const sim::MessagePool::Scope scope(&pool);
  // Churn far more messages than one slab holds, with a bounded live set:
  // after warm-up every allocation must come from pooled storage, and the
  // reserved footprint must stay at the in-flight watermark, not the total.
  std::vector<MessagePtr> live;
  for (int round = 0; round < 5000; ++round) {
    live.push_back(sim::make_message<cup::GetSinkMsg>(
        static_cast<ProcessId>(round)));
    if (live.size() > 64) live.erase(live.begin());
  }
  live.clear();
  const auto stats = pool.stats();
  EXPECT_EQ(stats.pool_allocs, 5000u);
  EXPECT_EQ(stats.pool_frees, 5000u);
  EXPECT_EQ(stats.fallback_allocs, 0u);
  // 64 live GetSink messages fit in a couple of slabs; 5000 allocations
  // must not have grown the footprint past the watermark.
  EXPECT_LE(stats.slabs_created, 4u);
  EXPECT_LE(stats.bytes_reserved, 4u * 64u * 1024u);
}

TEST(MessagePoolTest, BlocksOutliveThePoolHandle) {
  MessagePtr survivor;
  {
    sim::MessagePool pool;
    const sim::MessagePool::Scope scope(&pool);
    survivor = sim::make_message<cup::KnownMsg>(NodeSet(8, {1, 2, 3}));
  }
  // The allocator's shared State keeps the slab alive; releasing the last
  // reference after the pool died must be safe (ASan would flag a stale
  // slab here).
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->type_name(), "cup.known");
  survivor.reset();
}

TEST(MessagePoolTest, OversizedRequestsFallBackToHeap) {
  struct JumboMsg final : sim::Message {
    std::array<std::uint8_t, 8192> payload{};
    std::string type_name() const override { return "test.jumbo"; }
    std::uint16_t wire_type() const override {
      return sim::kWireTestTypeFirst + 4;
    }
    // Never sent: the test only allocates it, so the frame is the header.
    void wire_encode(sim::WireWriter& /*w*/) const override {}
  };
  sim::MessagePool pool;
  const sim::MessagePool::Scope scope(&pool);
  const MessagePtr msg = sim::make_message<JumboMsg>();
  EXPECT_EQ(pool.stats().fallback_allocs, 1u);
  EXPECT_EQ(pool.stats().pool_allocs, 0u);
}

TEST(MessagePoolTest, UnboundThreadsUsePlainMakeShared) {
  EXPECT_EQ(sim::MessagePool::current(), nullptr);
  const MessagePtr msg = sim::make_message<cup::GetSinkMsg>(ProcessId{1});
  EXPECT_NE(msg, nullptr);
}

// ---- pool on/off x shard-count identity ----

TEST(MessagePoolTest, PoolingIsInvisibleToTheDeterminismContract) {
  core::ChurnPartitionParams params;
  params.n = 16;
  params.f = 1;
  params.seed = 11;
  // For shard counts 0, 1 and 2: pool on vs. pool off must be
  // bit-identical in every observable — fingerprint, full SimMetrics,
  // decisions. Fingerprints and decisions are additionally invariant
  // across the shard counts (the full SimMetrics cross-count identity
  // lives in the E12 shard suites).
  core::ScenarioReport first;
  bool have_first = false;
  for (const std::size_t shards : {std::size_t{0}, std::size_t{1},
                                   std::size_t{2}}) {
    core::ScenarioReport pooled_run;
    for (const bool pooled : {true, false}) {
      core::ScenarioConfig config = core::churn_partition_scenario(params);
      config.net.message_pool = pooled;
      config.shards = shards;
      const core::ScenarioReport run = core::run_scenario(config);
      EXPECT_TRUE(run.all_decided);
      if (pooled) {
        pooled_run = run;
        continue;
      }
      EXPECT_EQ(run.notary_fingerprint, pooled_run.notary_fingerprint)
          << "shards=" << shards;
      EXPECT_EQ(run.metrics, pooled_run.metrics) << "shards=" << shards;
      EXPECT_EQ(run.decision_times, pooled_run.decision_times);
      EXPECT_EQ(run.end_time, pooled_run.end_time);
      if (!have_first) {
        first = run;
        have_first = true;
      } else {
        EXPECT_EQ(run.notary_fingerprint, first.notary_fingerprint);
        EXPECT_EQ(run.decision_times, first.decision_times);
        EXPECT_EQ(run.end_time, first.end_time);
      }
    }
  }
}

}  // namespace
}  // namespace scup
