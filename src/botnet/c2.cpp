#include "botnet/c2.hpp"

#include <sstream>
#include <stdexcept>

namespace ddoshield::botnet {

using net::TcpConnection;
using net::TrafficOrigin;

std::string C2Command::encode() const {
  std::ostringstream os;
  os << "ATK " << to_string(type) << ' ' << target.to_string() << ' ' << target_port << ' '
     << duration.ns() / 1'000'000 << ' ' << packets_per_second << ' '
     << (spoof_sources ? 1 : 0);
  return os.str();
}

C2Command C2Command::decode(const std::string& line) {
  std::istringstream is{line};
  std::string tag, type_str, ip_str;
  std::int64_t dur_ms = 0;
  int spoof = 0;
  C2Command cmd;
  is >> tag >> type_str >> ip_str >> cmd.target_port >> dur_ms >> cmd.packets_per_second >>
      spoof;
  if (tag != "ATK" || is.fail()) {
    throw std::invalid_argument("C2Command::decode: malformed command '" + line + "'");
  }
  cmd.type = attack_type_from_string(type_str);
  cmd.target = net::Ipv4Address::parse(ip_str);
  cmd.duration = util::SimTime::millis(dur_ms);
  cmd.spoof_sources = spoof != 0;
  return cmd;
}

C2Server::C2Server(container::Container& owner, util::Rng rng, C2ServerConfig config)
    : App{owner, "c2-server", rng}, config_{config} {}

void C2Server::on_start() {
  listener_ = node().tcp().listen(config_.port, config_.backlog, TrafficOrigin::kMiraiC2);
  listener_->set_on_accept(
      [this](std::shared_ptr<TcpConnection> conn) { handle_connection(std::move(conn)); });
  schedule(config_.sweep_interval, [this] { sweep_dead_bots(); });
}

// Drops bots whose heartbeats stopped (device churned out); their
// connections are aborted so a reconnecting bot re-registers cleanly.
void C2Server::sweep_dead_bots() {
  const util::SimTime now = sim().now();
  std::vector<std::shared_ptr<TcpConnection>> dead;
  for (auto it = bots_.begin(); it != bots_.end();) {
    if (now - it->second.last_seen > config_.bot_timeout) {
      dead.push_back(std::move(it->second.conn));
      it = bots_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& conn : dead) conn->abort();
  schedule(config_.sweep_interval, [this] { sweep_dead_bots(); });
}

void C2Server::on_stop() {
  if (listener_) listener_->close();
  listener_.reset();
  // abort() fires on_closed, which erases from bots_ — detach the map
  // first so the close callbacks cannot mutate what we iterate.
  auto bots = std::move(bots_);
  bots_.clear();
  for (auto& [name, slot] : bots) slot.conn->abort();
}

void C2Server::handle_connection(std::shared_ptr<TcpConnection> conn) {
  auto bot_name = std::make_shared<std::string>();

  conn->set_on_data([this, bot_name, conn_weak = std::weak_ptr<TcpConnection>{conn}](
                        std::uint32_t, const std::string& app_data) {
    auto conn = conn_weak.lock();
    if (!conn || !running()) return;
    if (app_data.rfind("REG ", 0) == 0) {
      *bot_name = app_data.substr(4);
      bots_[*bot_name] = BotSlot{conn, sim().now()};
      ++total_registrations_;
      conn->send(16, "ACK");
    } else if (app_data == "PING") {
      if (auto it = bots_.find(*bot_name); it != bots_.end() && it->second.conn == conn) {
        it->second.last_seen = sim().now();
      }
      conn->send(16, "PONG");
    }
  });

  conn->set_on_closed([this, bot_name, conn_raw = conn.get()](net::TcpCloseReason) {
    // Only erase if this connection still owns the slot (a reconnected
    // bot may have re-registered under the same name already).
    if (bot_name->empty()) return;
    if (auto it = bots_.find(*bot_name);
        it != bots_.end() && it->second.conn.get() == conn_raw) {
      bots_.erase(it);
    }
  });
}

std::size_t C2Server::launch_attack(const C2Command& cmd) {
  const std::string wire = cmd.encode();
  std::size_t sent = 0;
  for (auto& [name, slot] : bots_) {
    if (slot.conn->state() == net::TcpState::kEstablished) {
      slot.conn->send(static_cast<std::uint32_t>(64 + wire.size()), wire);
      ++sent;
    }
  }
  return sent;
}

std::size_t C2Server::stop_attack() {
  std::size_t sent = 0;
  for (auto& [name, slot] : bots_) {
    if (slot.conn->state() == net::TcpState::kEstablished) {
      slot.conn->send(16, "STP");
      ++sent;
    }
  }
  return sent;
}

}  // namespace ddoshield::botnet
