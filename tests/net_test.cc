// Transport-layer tests for src/net: address parsing, the NDJSON frame
// decoder under adversarial splits, and the poll(2) event-loop server —
// pipelined out-of-order completion, ordered mode, write backpressure,
// idle eviction, connection limits, oversize rejection, and shutdown
// draining an in-flight completion from another thread.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "net/address.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "service/client.h"

namespace rdfmr {
namespace net {
namespace {

using service::ServiceClient;

std::string TestSocketPath(const char* tag) {
  return StringFormat("/tmp/rdfmr-net-%s-%d.sock", tag,
                      static_cast<int>(::getpid()));
}

/// Spin-waits (with sleeps) until `predicate` holds or ~2s elapse.
template <typename Pred>
bool WaitFor(Pred predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// ---- addresses --------------------------------------------------------------

TEST(AddressTest, ParsesEverySpelling) {
  auto unix_addr = Address::Parse("unix:/tmp/x.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_EQ(unix_addr->kind, AddressKind::kUnix);
  EXPECT_EQ(unix_addr->path, "/tmp/x.sock");
  EXPECT_EQ(unix_addr->ToString(), "unix:/tmp/x.sock");

  auto tcp = Address::Parse("tcp:127.0.0.1:8080");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp->kind, AddressKind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 8080);

  auto wildcard = Address::Parse("tcp:*:0");
  ASSERT_TRUE(wildcard.ok());
  EXPECT_EQ(wildcard->port, 0);

  // Bare path: the pre-net --socket spelling stays accepted.
  auto bare = Address::Parse("/tmp/bare.sock");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->kind, AddressKind::kUnix);
  EXPECT_EQ(bare->path, "/tmp/bare.sock");

  EXPECT_FALSE(Address::Parse("").ok());
  EXPECT_FALSE(Address::Parse("unix:").ok());
  EXPECT_FALSE(Address::Parse("tcp:8080").ok());
  EXPECT_FALSE(Address::Parse("tcp:host:notaport").ok());
  EXPECT_FALSE(Address::Parse("tcp:host:99999").ok());
}

// ---- frame decoder ----------------------------------------------------------

TEST(LineDecoderTest, ReassemblesTornReads) {
  LineDecoder decoder;
  std::vector<std::string> lines;
  const std::string wire = "first line\nsecond\n\nthird\n";
  // Feed one byte at a time: worst-case tearing.
  for (char byte : wire) {
    ASSERT_TRUE(decoder.Feed(&byte, 1, &lines));
  }
  // The empty line between "second" and "third" is dropped.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "first line");
  EXPECT_EQ(lines[1], "second");
  EXPECT_EQ(lines[2], "third");
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(LineDecoderTest, ManyLinesInOneChunk) {
  LineDecoder decoder;
  std::vector<std::string> lines;
  const std::string wire = "a\nb\nc\npartial";
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size(), &lines));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(decoder.pending_bytes(), 7u);  // "partial" buffered
  const std::string rest = " done\n";
  ASSERT_TRUE(decoder.Feed(rest.data(), rest.size(), &lines));
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[3], "partial done");
}

TEST(LineDecoderTest, HugeLineWithinCapSurvives) {
  LineDecoder decoder(1 << 20);
  std::vector<std::string> lines;
  std::string big(1 << 20, 'x');
  std::string wire = big + "\n";
  // Feed in 4KB chunks.
  for (size_t off = 0; off < wire.size(); off += 4096) {
    const size_t n = std::min<size_t>(4096, wire.size() - off);
    ASSERT_TRUE(decoder.Feed(wire.data() + off, n, &lines));
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], big);
}

TEST(LineDecoderTest, OversizeWholeChunkRejected) {
  // A complete oversize line arriving with its newline in one chunk must
  // be rejected, not delivered.
  LineDecoder decoder(8);
  std::vector<std::string> lines;
  const std::string wire = "ok\nwaytoolongline\nnever\n";
  EXPECT_FALSE(decoder.Feed(wire.data(), wire.size(), &lines));
  // The in-cap line before the oversize one was still delivered.
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ok");
  EXPECT_TRUE(decoder.overflowed());
  // Poisoned: later feeds keep failing, even with tiny input.
  EXPECT_FALSE(decoder.Feed("a\n", 2, &lines));
  EXPECT_EQ(lines.size(), 1u);
}

TEST(LineDecoderTest, OversizeTornAcrossReadsRejected) {
  LineDecoder decoder(8);
  std::vector<std::string> lines;
  std::string chunk(5, 'y');
  ASSERT_TRUE(decoder.Feed(chunk.data(), chunk.size(), &lines));
  EXPECT_FALSE(decoder.Feed(chunk.data(), chunk.size(), &lines));
  EXPECT_TRUE(decoder.overflowed());
  EXPECT_TRUE(lines.empty());
}

// ---- event-loop server ------------------------------------------------------

/// Lets the handler lambda reference the server it is installed into
/// (the server is constructed with the handler, so the pointer is filled
/// in afterwards, before Start()).
struct ServerBox {
  NetServer* server = nullptr;
};

TEST(NetServerTest, PipelinedCompletionOrderAndOrderedMode) {
  // The handler holds every request of a connection until the third
  // arrives, then completes them in REVERSE order: an unordered client
  // must see them reversed, an ordered one in request order.
  struct Held {
    std::mutex mu;
    std::vector<std::pair<std::pair<uint64_t, uint64_t>, std::string>> lines;
  };
  auto box = std::make_shared<ServerBox>();
  auto held = std::make_shared<Held>();

  NetServerOptions options;
  options.listeners.push_back(Address::Unix(TestSocketPath("pipeline")));
  NetServer server(
      options, [box, held](uint64_t conn, uint64_t seq, std::string line) {
        if (seq == 0 && StartsWith(line, "ordered")) {
          box->server->SetOrdered(conn);
        }
        std::vector<decltype(held->lines)::value_type> flush;
        {
          std::lock_guard<std::mutex> lock(held->mu);
          held->lines.push_back({{conn, seq}, std::move(line)});
          if (held->lines.size() < 3) return;
          flush.swap(held->lines);
        }
        for (auto it = flush.rbegin(); it != flush.rend(); ++it) {
          box->server->Complete(it->first.first, it->first.second,
                                "echo:" + it->second);
        }
      });
  box->server = &server;
  ASSERT_TRUE(server.Start().ok());
  const std::string target = server.bound_addresses()[0].ToString();

  {
    auto client = ServiceClient::Connect(target);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SendLine("a").ok());
    ASSERT_TRUE(client->SendLine("b").ok());
    ASSERT_TRUE(client->SendLine("c").ok());
    auto r0 = client->ReceiveLine();
    auto r1 = client->ReceiveLine();
    auto r2 = client->ReceiveLine();
    ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok());
    EXPECT_EQ(*r0, "echo:c");  // completion order: reversed
    EXPECT_EQ(*r1, "echo:b");
    EXPECT_EQ(*r2, "echo:a");
  }
  {
    auto client = ServiceClient::Connect(target);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->SendLine("ordered-a").ok());
    ASSERT_TRUE(client->SendLine("b").ok());
    ASSERT_TRUE(client->SendLine("c").ok());
    auto r0 = client->ReceiveLine();
    auto r1 = client->ReceiveLine();
    auto r2 = client->ReceiveLine();
    ASSERT_TRUE(r0.ok() && r1.ok() && r2.ok());
    EXPECT_EQ(*r0, "echo:ordered-a");  // request order despite reversed
    EXPECT_EQ(*r1, "echo:b");          // completion
    EXPECT_EQ(*r2, "echo:c");
  }
  EXPECT_EQ(server.stats().lines_dispatched, 6u);
  EXPECT_EQ(server.stats().lines_completed, 6u);
  server.Stop();
}

TEST(NetServerTest, BackpressureStallsReadsUntilClientDrains) {
  // Tiny outbound watermark + fat echo responses: a client that sends
  // a burst without reading must stall the server's reads; once the
  // client drains, every response still arrives intact.
  constexpr int kRequests = 64;
  const std::string payload(32 * 1024, 'p');
  auto box = std::make_shared<ServerBox>();

  NetServerOptions options;
  options.listeners.push_back(Address::Unix(TestSocketPath("pressure")));
  options.max_outbound_bytes = 64 * 1024;
  NetServer server(options, [box, payload](uint64_t conn, uint64_t seq,
                                           std::string line) {
    box->server->Complete(conn, seq, line + ":" + payload);
  });
  box->server = &server;
  ASSERT_TRUE(server.Start().ok());

  auto client =
      ServiceClient::Connect(server.bound_addresses()[0].ToString());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client->SendLine(StringFormat("req%d", i)).ok());
  }
  // ~2MB of responses against a 64KB watermark: the stall must trip
  // while the client is not reading.
  ASSERT_TRUE(WaitFor(
      [&server] { return server.stats().backpressure_stalls >= 1; }));

  for (int i = 0; i < kRequests; ++i) {
    auto line = client->ReceiveLine();
    ASSERT_TRUE(line.ok()) << "response " << i;
    EXPECT_EQ(*line, StringFormat("req%d", i) + ":" + payload);
  }
  EXPECT_EQ(server.stats().lines_completed,
            static_cast<uint64_t>(kRequests));
  server.Stop();
}

TEST(NetServerTest, IdleConnectionsAreEvicted) {
  auto box = std::make_shared<ServerBox>();
  NetServerOptions options;
  options.listeners.push_back(Address::Unix(TestSocketPath("idle")));
  options.idle_timeout_ms = 50;
  NetServer server(options,
                   [box](uint64_t conn, uint64_t seq, std::string line) {
                     box->server->Complete(conn, seq, std::move(line));
                   });
  box->server = &server;
  ASSERT_TRUE(server.Start().ok());

  auto client =
      ServiceClient::Connect(server.bound_addresses()[0].ToString());
  ASSERT_TRUE(client.ok());
  // An active round-trip resets the idle clock...
  auto echoed = client->CallLine("alive");
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, "alive");
  // ...then silence gets the connection evicted: the next read sees EOF.
  auto evicted = client->ReceiveLine();
  EXPECT_FALSE(evicted.ok());
  EXPECT_TRUE(WaitFor([&server] { return server.stats().idle_evicted == 1; }));
  EXPECT_EQ(server.stats().open_connections, 0u);
  server.Stop();
}

TEST(NetServerTest, ConnectionLimitRejectsWithConfiguredLine) {
  auto box = std::make_shared<ServerBox>();
  NetServerOptions options;
  options.listeners.push_back(Address::Unix(TestSocketPath("limit")));
  options.max_connections = 1;
  options.reject_line = "{\"ok\":false,\"code\":\"Unavailable\"}";
  NetServer server(options,
                   [box](uint64_t conn, uint64_t seq, std::string line) {
                     box->server->Complete(conn, seq, std::move(line));
                   });
  box->server = &server;
  ASSERT_TRUE(server.Start().ok());
  const std::string target = server.bound_addresses()[0].ToString();

  auto first = ServiceClient::Connect(target);
  ASSERT_TRUE(first.ok());
  // A round-trip guarantees the first connection is accepted (not still
  // sitting in the listen backlog) before the second one dials.
  ASSERT_TRUE(first->CallLine("hold").ok());

  auto second = ServiceClient::Connect(target);
  ASSERT_TRUE(second.ok());  // connect() succeeds; the server then rejects
  auto reject = second->ReceiveLine();
  ASSERT_TRUE(reject.ok());
  EXPECT_EQ(*reject, options.reject_line);
  auto eof = second->ReceiveLine();
  EXPECT_FALSE(eof.ok());
  EXPECT_GE(server.stats().rejected_over_limit, 1u);

  // The slot frees once the first client leaves.
  first = Status::Unknown("dropped");
  ASSERT_TRUE(WaitFor([&server] { return server.stats().open_connections == 0; }));
  auto third = ServiceClient::Connect(target);
  ASSERT_TRUE(third.ok());
  auto echoed = third->CallLine("in");
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(*echoed, "in");
  server.Stop();
}

TEST(NetServerTest, OversizeLineGetsStructuredErrorThenClose) {
  auto box = std::make_shared<ServerBox>();
  NetServerOptions options;
  options.listeners.push_back(Address::Unix(TestSocketPath("oversize")));
  options.max_line_bytes = 128;
  options.oversize_line = "{\"ok\":false,\"code\":\"InvalidArgument\"}";
  NetServer server(options,
                   [box](uint64_t conn, uint64_t seq, std::string line) {
                     box->server->Complete(conn, seq, std::move(line));
                   });
  box->server = &server;
  ASSERT_TRUE(server.Start().ok());

  auto client =
      ServiceClient::Connect(server.bound_addresses()[0].ToString());
  ASSERT_TRUE(client.ok());
  // An in-cap request on the same connection still answers first.
  ASSERT_TRUE(client->SendLine("fine").ok());
  ASSERT_TRUE(client->SendLine(std::string(256, 'z')).ok());
  auto ok_line = client->ReceiveLine();
  ASSERT_TRUE(ok_line.ok());
  EXPECT_EQ(*ok_line, "fine");
  auto err_line = client->ReceiveLine();
  ASSERT_TRUE(err_line.ok());
  EXPECT_EQ(*err_line, options.oversize_line);
  auto eof = client->ReceiveLine();
  EXPECT_FALSE(eof.ok());  // the stream cannot resync: connection closed
  EXPECT_EQ(server.stats().oversize_frames, 1u);
  server.Stop();
}

TEST(NetServerTest, StopDrainsInFlightCompletionFromAnotherThread) {
  // A request completed by a worker thread AFTER Stop() begins must
  // still reach the client before its connection closes.
  struct Pending {
    std::mutex mu;
    uint64_t conn = 0;
    uint64_t seq = 0;
    bool have = false;
  };
  auto pending = std::make_shared<Pending>();
  NetServerOptions options;
  options.listeners.push_back(Address::Unix(TestSocketPath("drain")));
  NetServer server(options, [pending](uint64_t conn, uint64_t seq,
                                      std::string /*line*/) {
    std::lock_guard<std::mutex> lock(pending->mu);
    pending->conn = conn;
    pending->seq = seq;
    pending->have = true;
  });
  ASSERT_TRUE(server.Start().ok());

  auto client =
      ServiceClient::Connect(server.bound_addresses()[0].ToString());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendLine("slow").ok());
  ASSERT_TRUE(WaitFor([&pending] {
    std::lock_guard<std::mutex> lock(pending->mu);
    return pending->have;
  }));

  std::thread worker([&server, pending] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::lock_guard<std::mutex> lock(pending->mu);
    server.Complete(pending->conn, pending->seq, "late-result");
  });
  server.Stop();  // must block until the late completion is flushed
  worker.join();
  EXPECT_TRUE(server.stopped());

  auto line = client->ReceiveLine();
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(*line, "late-result");
  auto eof = client->ReceiveLine();
  EXPECT_FALSE(eof.ok());
}

TEST(NetServerTest, ServesUnixAndTcpSimultaneously) {
  auto box = std::make_shared<ServerBox>();
  NetServerOptions options;
  options.listeners.push_back(Address::Unix(TestSocketPath("dual")));
  options.listeners.push_back(Address::Tcp("127.0.0.1", 0));
  NetServer server(options,
                   [box](uint64_t conn, uint64_t seq, std::string line) {
                     box->server->Complete(conn, seq, "pong:" + line);
                   });
  box->server = &server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.bound_addresses().size(), 2u);
  EXPECT_NE(server.bound_addresses()[1].port, 0);  // ephemeral resolved

  for (const Address& address : server.bound_addresses()) {
    auto client = ServiceClient::Connect(address.ToString());
    ASSERT_TRUE(client.ok()) << address.ToString();
    auto line = client->CallLine("hi");
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(*line, "pong:hi");
  }
  EXPECT_EQ(server.stats().accepted, 2u);
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace rdfmr
