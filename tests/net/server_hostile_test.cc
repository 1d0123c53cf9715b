// Hostile-handshake regression tests distilled from the fuzzing subsystem
// (fuzz_server_session found the original defect; see
// fuzz/regressions/server_session/). A hello id outside [0, INT_MAX] —
// above all −1, the "no id yet" sentinel — used to let one connection
// register twice and leave a dangling by_client_ entry behind on close; a
// hello naming an id that is already bound must not steal it either.
#include "net/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace net {
namespace {

RetryConfig FastRetry() {
  RetryConfig retry;
  retry.max_attempts = 10;
  retry.initial_backoff_ms = 1.0;
  return retry;
}

void PumpUntilClosed(Server& server, Connection& conn) {
  Frame frame;
  for (int i = 0; i < 200; ++i) {
    server.PollOnce(1);
    if (conn.TryRecvFrame(&frame, 5) == Connection::RecvStatus::kEof) {
      return;
    }
  }
  FAIL() << "server never closed the hostile connection";
}

// EncodeHello refuses negative ids, so hostile hellos are hand-rolled:
// u32 count, then the raw i32 ids.
Frame RawHello(const std::vector<std::int32_t>& ids) {
  Frame frame;
  frame.type = MessageType::kHello;
  const auto count = static_cast<std::uint32_t>(ids.size());
  const auto* count_bytes = reinterpret_cast<const std::uint8_t*>(&count);
  frame.payload.assign(count_bytes, count_bytes + sizeof(count));
  for (const std::int32_t id : ids) {
    const auto* id_bytes = reinterpret_cast<const std::uint8_t*>(&id);
    frame.payload.insert(frame.payload.end(), id_bytes,
                         id_bytes + sizeof(id));
  }
  return frame;
}

TEST(ServerHostileTest, UnrepresentableHelloIdsAreRejected) {
  // Ids outside the client-id space [0, INT_MAX]: the −1 sentinel, INT_MIN,
  // and a negative id behind a valid one (the session binds incrementally,
  // so the valid prefix must be unbound again on close).
  Server server(ServerOptions{});
  for (const std::vector<std::int32_t>& ids :
       std::vector<std::vector<std::int32_t>>{
           {-1}, {std::numeric_limits<std::int32_t>::min()}, {3, -1}}) {
    SCOPED_TRACE(testing::Message()
                 << ids.size() << " id(s), last " << ids.back());
    Connection conn = ConnectWithRetry(server.port(), FastRetry(), 3);
    conn.SendFrame(RawHello(ids), 1000);
    PumpUntilClosed(server, conn);
    EXPECT_EQ(server.ConnectedCount(), 0u);
    EXPECT_FALSE(server.IsConnected(3));
    EXPECT_FALSE(server.WaitForClients(1, 0));
  }
}

TEST(ServerHostileTest, BoundaryHelloIdStillWorks) {
  Server server(ServerOptions{});
  Connection conn = ConnectWithRetry(server.port(), FastRetry(), 3);
  conn.SendFrame(EncodeHello({{std::numeric_limits<std::int32_t>::max()}}),
                 1000);  // INT_MAX: representable, valid
  for (int i = 0; i < 200 && !server.IsConnected(0x7FFFFFFF); ++i) {
    server.PollOnce(1);
  }
  EXPECT_TRUE(server.IsConnected(0x7FFFFFFF));
  EXPECT_TRUE(server.WaitForClients(1, 0));
}

TEST(ServerHostileTest, GoodClientSurvivesHostileHello) {
  Server server(ServerOptions{});
  std::vector<int> disconnected;
  server.SetDisconnectHandler(
      [&disconnected](int id) { disconnected.push_back(id); });

  Connection good = ConnectWithRetry(server.port(), FastRetry(), 3);
  good.SendFrame(EncodeHello({{1}}), 1000);
  for (int i = 0; i < 200 && !server.IsConnected(1); ++i) {
    server.PollOnce(1);
  }
  ASSERT_TRUE(server.IsConnected(1));

  // A negative id, and a second claim on the good client's id.
  for (const Frame& hello : {RawHello({-1}), EncodeHello({{1}})}) {
    Connection hostile = ConnectWithRetry(server.port(), FastRetry(), 3);
    hostile.SendFrame(hello, 1000);
    PumpUntilClosed(server, hostile);
  }

  // Only the hostile connections fell; the established session is intact
  // and the bookkeeping walk (WaitForClients dereferences every by_client_
  // entry) stays clean — the dangling-pointer failure mode under ASan.
  EXPECT_TRUE(server.IsConnected(1));
  EXPECT_TRUE(server.WaitForClients(1, 0));
  EXPECT_TRUE(disconnected.empty());

  // The surviving client still receives real traffic.
  ModelBroadcastMsg msg;
  msg.round = 1;
  msg.job_index = 9;
  msg.params = {1.0f, 2.0f};
  ASSERT_TRUE(server.SendTo(1, EncodeModelBroadcast(msg)));
  server.Flush(1000);
  Frame frame;
  bool delivered = false;
  for (int i = 0; i < 200 && !delivered; ++i) {
    server.PollOnce(1);
    delivered =
        good.TryRecvFrame(&frame, 5) == Connection::RecvStatus::kFrame;
  }
  ASSERT_TRUE(delivered);
  EXPECT_EQ(DecodeModelBroadcast(frame).job_index, 9u);
}

}  // namespace
}  // namespace net
