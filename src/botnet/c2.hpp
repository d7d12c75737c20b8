// Mirai command-and-control server.
//
// Runs inside the Attacker container. Bots connect over TCP, register, and
// keep the channel alive with heartbeats; the operator launches an attack
// by broadcasting an ATK command to every connected bot. The C2 channel's
// packets are labelled kMiraiC2 — low-volume but persistent malicious
// traffic that a good IDS should also flag.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "botnet/floods.hpp"
#include "net/tcp.hpp"

namespace ddoshield::botnet {

struct C2Command {
  AttackType type = AttackType::kSynFlood;
  net::Ipv4Address target;
  std::uint16_t target_port = 80;
  util::SimTime duration = util::SimTime::seconds(10);
  double packets_per_second = 1000.0;
  bool spoof_sources = false;

  /// Wire encoding: "ATK <type> <ip> <port> <dur_ms> <pps> <spoof>".
  std::string encode() const;
  static C2Command decode(const std::string& line);
};

struct C2ServerConfig {
  std::uint16_t port = 48101;  // Mirai's loader/C2 port
  std::size_t backlog = 256;
  /// Bots silent for longer than this are dropped (their device churned
  /// out or the path collapsed); the reconnect handshake re-registers them.
  util::SimTime bot_timeout = util::SimTime::seconds(30);
  util::SimTime sweep_interval = util::SimTime::seconds(10);
};

class C2Server : public apps::App {
 public:
  C2Server(container::Container& owner, util::Rng rng, C2ServerConfig config = {});

  /// Broadcasts an attack command to all connected bots; returns how many
  /// bots received it.
  std::size_t launch_attack(const C2Command& cmd);

  /// Broadcasts a stop command.
  std::size_t stop_attack();

  std::size_t connected_bots() const { return bots_.size(); }
  std::uint64_t total_registrations() const { return total_registrations_; }

 protected:
  void on_start() override;
  void on_stop() override;

 private:
  struct BotSlot {
    std::shared_ptr<net::TcpConnection> conn;
    util::SimTime last_seen;
  };

  void handle_connection(std::shared_ptr<net::TcpConnection> conn);
  void sweep_dead_bots();

  C2ServerConfig config_;
  std::shared_ptr<net::TcpListener> listener_;
  std::map<std::string, BotSlot> bots_;
  std::uint64_t total_registrations_ = 0;
};

}  // namespace ddoshield::botnet
