// Tests for the container runtime emulation.
#include <gtest/gtest.h>

#include "container/runtime.hpp"
#include "net/network.hpp"

namespace ddoshield::container {
namespace {

struct RuntimeFixture : ::testing::Test {
  net::Network net;
  net::Node* node = nullptr;
  ContainerRuntime runtime;

  void SetUp() override {
    node = &net.add_node("host", net::Ipv4Address{10, 0, 0, 1});
    runtime.register_image({"test/image", "1.0", nullptr});
  }
};

TEST_F(RuntimeFixture, ImageRegistryRoundTrip) {
  EXPECT_TRUE(runtime.has_image("test/image:1.0"));
  EXPECT_FALSE(runtime.has_image("test/image:2.0"));
  EXPECT_EQ(runtime.image("test/image:1.0").name, "test/image");
  EXPECT_THROW(runtime.image("nope:1.0"), std::invalid_argument);
}

TEST_F(RuntimeFixture, ImageRefCombinesNameAndTag) {
  Image img{"a/b", "3.1", nullptr};
  EXPECT_EQ(img.ref(), "a/b:3.1");
}

TEST_F(RuntimeFixture, CreateStartStopLifecycle) {
  Container& c = runtime.create("c1", "test/image:1.0");
  EXPECT_EQ(c.state(), ContainerState::kCreated);
  c.attach_node(*node);
  c.start();
  EXPECT_EQ(c.state(), ContainerState::kRunning);
  EXPECT_EQ(runtime.running_count(), 1u);
  c.stop();
  EXPECT_EQ(c.state(), ContainerState::kStopped);
  EXPECT_EQ(runtime.running_count(), 0u);
}

TEST_F(RuntimeFixture, EntrypointRunsOnStart) {
  bool ran = false;
  runtime.register_image({"test/entry", "1", [&ran](Container&) { ran = true; }});
  Container& c = runtime.create("c2", "test/entry:1");
  c.attach_node(*node);
  EXPECT_FALSE(ran);
  c.start();
  EXPECT_TRUE(ran);
}

TEST_F(RuntimeFixture, StartWithoutNodeThrows) {
  Container& c = runtime.create("c3", "test/image:1.0");
  EXPECT_THROW(c.start(), std::logic_error);
}

TEST_F(RuntimeFixture, DoubleStartThrows) {
  Container& c = runtime.create("c4", "test/image:1.0");
  c.attach_node(*node);
  c.start();
  EXPECT_THROW(c.start(), std::logic_error);
}

TEST_F(RuntimeFixture, RebindingRunningContainerThrows) {
  Container& c = runtime.create("c5", "test/image:1.0");
  c.attach_node(*node);
  c.start();
  EXPECT_THROW(c.attach_node(*node), std::logic_error);
}

TEST_F(RuntimeFixture, DuplicateNameRejected) {
  runtime.create("dup", "test/image:1.0");
  EXPECT_THROW(runtime.create("dup", "test/image:1.0"), std::invalid_argument);
}

TEST_F(RuntimeFixture, UnknownImageRejected) {
  EXPECT_THROW(runtime.create("x", "missing:0"), std::invalid_argument);
}

TEST_F(RuntimeFixture, StopHooksRunOnceInOrder) {
  Container& c = runtime.create("c7", "test/image:1.0");
  c.attach_node(*node);
  c.start();
  std::vector<int> order;
  c.on_stop([&] { order.push_back(1); });
  c.on_stop([&] { order.push_back(2); });
  c.stop();
  c.stop();  // second stop is a no-op
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(RuntimeFixture, StopAllStopsEverything) {
  for (int i = 0; i < 3; ++i) {
    Container& c = runtime.create("m" + std::to_string(i), "test/image:1.0");
    c.attach_node(*node);
    c.start();
  }
  EXPECT_EQ(runtime.running_count(), 3u);
  runtime.stop_all();
  EXPECT_EQ(runtime.running_count(), 0u);
  EXPECT_EQ(runtime.list().size(), 3u);
}

TEST_F(RuntimeFixture, NodeAccessWithoutAttachThrows) {
  Container& c = runtime.create("n", "test/image:1.0");
  EXPECT_THROW(c.node(), std::logic_error);
  c.attach_node(*node);
  EXPECT_EQ(&c.node(), node);
}

}  // namespace
}  // namespace ddoshield::container
