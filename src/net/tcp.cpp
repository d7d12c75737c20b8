#include "net/tcp.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace ddoshield::net {

namespace {

// 32-bit sequence-space comparisons (RFC 1982 style).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

constexpr std::string_view kLog = "tcp";

}  // namespace

std::string to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TcpConnection
// ---------------------------------------------------------------------------

TcpConnection::TcpConnection(TcpHost& host, Endpoint local, Endpoint remote,
                             TrafficOrigin origin)
    : host_{host},
      sim_{host.node().simulator()},
      local_{local},
      remote_{remote},
      origin_{origin},
      cfg_{host.config()} {
  cwnd_ = cfg_.initial_cwnd_segments * cfg_.mss;
  ssthresh_ = cfg_.receive_window;
}

void TcpConnection::start_connect() {
  iss_ = host_.random_iss();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  state_ = TcpState::kSynSent;
  send_segment(TcpFlags::kSyn, iss_, 0, {}, false);
  arm_retransmit_timer(cfg_.syn_rto);
}

void TcpConnection::start_accept(std::uint32_t peer_iss) {
  irs_ = peer_iss;
  rcv_nxt_ = peer_iss + 1;
  iss_ = host_.random_iss();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = TcpState::kSynRcvd;
  send_segment(TcpFlags::kSyn | TcpFlags::kAck, iss_, 0, {}, false);
  arm_retransmit_timer(cfg_.syn_rto);
}

void TcpConnection::start_cookie_accept(std::uint32_t peer_iss, std::uint32_t cookie_iss) {
  // The handshake already happened statelessly: our SYN-ACK carried the
  // cookie as ISS and the peer's ACK proved it arrived. Adopt the cookie
  // as this side's sequence origin and go straight to ESTABLISHED.
  irs_ = peer_iss;
  rcv_nxt_ = peer_iss + 1;
  iss_ = cookie_iss;
  snd_una_ = cookie_iss + 1;
  snd_nxt_ = cookie_iss + 1;
  state_ = TcpState::kEstablished;
  established_at_ = sim_.now();
  host_.m_handshakes_->inc();
}

void TcpConnection::send(std::uint32_t bytes, std::string app_data) {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    throw std::logic_error("TcpConnection::send: not writable in state " +
                           to_string(state_));
  }
  if (fin_queued_) {
    throw std::logic_error("TcpConnection::send: already closed for writing");
  }
  // Segment at MSS; the app message string rides on the first segment.
  std::uint32_t remaining = bytes;
  bool first = true;
  do {
    Segment seg;
    seg.len = std::min(remaining, cfg_.mss);
    if (first) seg.app_data = std::move(app_data);
    first = false;
    remaining -= seg.len;
    unsent_.push_back(std::move(seg));
  } while (remaining > 0);
  try_transmit();
}

void TcpConnection::close() {
  switch (state_) {
    case TcpState::kSynSent:
      finish(TcpCloseReason::kAborted);
      return;
    case TcpState::kEstablished:
      state_ = TcpState::kFinWait1;
      enqueue_fin();
      return;
    case TcpState::kCloseWait:
      state_ = TcpState::kLastAck;
      enqueue_fin();
      return;
    default:
      return;  // already closing or closed
  }
}

void TcpConnection::abort() {
  if (finished_) return;
  if (state_ != TcpState::kSynSent && state_ != TcpState::kClosed) {
    send_segment(TcpFlags::kRst | TcpFlags::kAck, snd_nxt_, 0, {}, false);
  }
  finish(TcpCloseReason::kAborted);
}

void TcpConnection::enqueue_fin() {
  if (fin_queued_) return;
  fin_queued_ = true;
  Segment seg;
  seg.fin = true;
  unsent_.push_back(std::move(seg));
  try_transmit();
}

void TcpConnection::send_segment(std::uint8_t flags, std::uint32_t seq, std::uint32_t len,
                                 std::string app_data, bool count_payload) {
  Packet pkt;
  pkt.src = local_.addr;
  pkt.src_port = local_.port;
  pkt.dst = remote_.addr;
  pkt.dst_port = remote_.port;
  pkt.proto = IpProto::kTcp;
  pkt.tcp_flags = flags;
  pkt.seq = seq;
  // ACK is meaningful once we have seen the peer's ISS.
  if ((flags & TcpFlags::kAck) != 0) pkt.ack = rcv_nxt_;
  pkt.payload_bytes = len;
  pkt.app_data = std::move(app_data);
  pkt.origin = origin_;
  pkt.stack_tcp = true;
  if (count_payload) bytes_sent_ += len;
  host_.node().send(std::move(pkt));
}

void TcpConnection::send_ack() {
  send_segment(TcpFlags::kAck, snd_nxt_, 0, {}, false);
}

void TcpConnection::try_transmit() {
  while (!unsent_.empty()) {
    Segment& head = unsent_.front();
    const std::uint32_t in_flight = snd_nxt_ - snd_una_;
    if (!head.fin && in_flight + head.len > cwnd_) break;

    Segment seg = std::move(head);
    unsent_.pop_front();
    seg.seq = snd_nxt_;
    if (seg.fin) {
      fin_sent_ = true;
      snd_nxt_ += 1;  // FIN consumes one sequence number
      send_segment(TcpFlags::kFin | TcpFlags::kAck, seg.seq, 0, {}, false);
    } else {
      snd_nxt_ += seg.len;
      send_segment(TcpFlags::kAck | TcpFlags::kPsh, seg.seq, seg.len, seg.app_data);
    }
    inflight_.push_back(std::move(seg));
  }
  if (!inflight_.empty() && !rto_timer_.pending()) {
    arm_retransmit_timer(cfg_.base_rto);
  }
}

void TcpConnection::arm_retransmit_timer(util::SimTime rto) {
  rto_timer_.cancel();
  // Exponential backoff on consecutive retries.
  util::SimTime backed_off = rto;
  for (int i = 0; i < retry_count_; ++i) backed_off = backed_off * 2;
  auto self = weak_from_this();
  rto_timer_ = sim_.schedule(backed_off, [self]() {
    if (auto conn = self.lock()) conn->on_retransmit_timeout();
  });
}

void TcpConnection::on_retransmit_timeout() {
  if (finished_) return;

  if (state_ == TcpState::kSynSent) {
    if (retry_count_ >= cfg_.max_syn_retries) {
      finish(TcpCloseReason::kConnectTimeout);
      return;
    }
    ++retry_count_;
    ++retransmissions_;
    host_.m_retransmits_->inc();
    send_segment(TcpFlags::kSyn, iss_, 0, {}, false);
    arm_retransmit_timer(cfg_.syn_rto);
    return;
  }

  if (state_ == TcpState::kSynRcvd) {
    if (retry_count_ >= cfg_.max_synack_retries) {
      // Half-open embryo gave up: free the backlog slot silently, exactly
      // like a kernel reaping an unanswered SYN-ACK.
      finish(TcpCloseReason::kConnectTimeout);
      return;
    }
    ++retry_count_;
    ++retransmissions_;
    host_.m_retransmits_->inc();
    send_segment(TcpFlags::kSyn | TcpFlags::kAck, iss_, 0, {}, false);
    arm_retransmit_timer(cfg_.syn_rto);
    return;
  }

  if (inflight_.empty()) return;
  if (retry_count_ >= cfg_.max_data_retries) {
    finish(TcpCloseReason::kRetransmitLimit);
    return;
  }
  ++retry_count_;
  ++retransmissions_;
  host_.m_retransmits_->inc();
  // Multiplicative decrease, then retransmit the oldest unacked segment.
  ssthresh_ = std::max(cwnd_ / 2, 2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  const Segment& seg = inflight_.front();
  if (seg.fin) {
    send_segment(TcpFlags::kFin | TcpFlags::kAck, seg.seq, 0, {}, false);
  } else {
    send_segment(TcpFlags::kAck | TcpFlags::kPsh, seg.seq, seg.len, seg.app_data, false);
  }
  arm_retransmit_timer(cfg_.base_rto);
}

void TcpConnection::handle_ack(std::uint32_t ack) {
  if (!seq_lt(snd_una_, ack) || !seq_leq(ack, snd_nxt_)) return;  // stale or absurd
  snd_una_ = ack;
  retry_count_ = 0;

  while (!inflight_.empty()) {
    const Segment& seg = inflight_.front();
    const std::uint32_t seg_end = seg.seq + (seg.fin ? 1 : seg.len);
    if (!seq_leq(seg_end, ack)) break;
    // Congestion window growth per fully-acked segment.
    if (cwnd_ < ssthresh_) {
      cwnd_ += cfg_.mss;  // slow start
    } else {
      cwnd_ += std::max(1u, cfg_.mss * cfg_.mss / cwnd_);  // congestion avoidance
    }
    cwnd_ = std::min(cwnd_, cfg_.receive_window);
    inflight_.pop_front();
  }

  rto_timer_.cancel();
  if (!inflight_.empty()) arm_retransmit_timer(cfg_.base_rto);

  try_transmit();

  // FIN-acknowledgement driven transitions.
  if (fin_sent_ && inflight_.empty() && unsent_.empty() && snd_una_ == snd_nxt_) {
    switch (state_) {
      case TcpState::kFinWait1:
        state_ = TcpState::kFinWait2;
        break;
      case TcpState::kClosing:
        enter_time_wait();
        break;
      case TcpState::kLastAck:
        finish(TcpCloseReason::kGracefulClose);
        break;
      default:
        break;
    }
  }
}

void TcpConnection::accept_payload(const Packet& pkt) {
  if (pkt.payload_bytes == 0) return;
  if (pkt.seq == rcv_nxt_) {
    rcv_nxt_ += pkt.payload_bytes;
    bytes_received_ += pkt.payload_bytes;
    if (on_data_) on_data_(pkt.payload_bytes, pkt.app_data);
    deliver_in_order();
    // Delayed ACK (RFC 1122): acknowledge every second in-order segment
    // immediately; hold the odd ones briefly like real stacks do.
    if (++delayed_ack_pending_ >= 2) {
      delayed_ack_pending_ = 0;
      delack_timer_.cancel();
      send_ack();
    } else {
      auto self = weak_from_this();
      delack_timer_.cancel();
      delack_timer_ = sim_.schedule(util::SimTime::millis(40), [self] {
        if (auto conn = self.lock()) {
          conn->delayed_ack_pending_ = 0;
          conn->send_ack();
        }
      });
    }
  } else if (seq_lt(rcv_nxt_, pkt.seq)) {
    Segment seg;
    seg.seq = pkt.seq;
    seg.len = pkt.payload_bytes;
    seg.app_data = pkt.app_data;
    out_of_order_.emplace(pkt.seq, std::move(seg));
    send_ack();  // duplicate ACK signals the gap
  } else {
    send_ack();  // old retransmission
  }
}

void TcpConnection::deliver_in_order() {
  auto it = out_of_order_.begin();
  while (it != out_of_order_.end() && seq_leq(it->first, rcv_nxt_)) {
    if (it->first == rcv_nxt_) {
      rcv_nxt_ += it->second.len;
      bytes_received_ += it->second.len;
      if (on_data_) on_data_(it->second.len, it->second.app_data);
    }
    it = out_of_order_.erase(it);
    it = out_of_order_.begin();
  }
}

void TcpConnection::on_segment(const Packet& pkt) {
  if (finished_) return;
  auto self = shared_from_this();  // keep alive across callbacks
  // A callback may finish this connection midway; the callbacks stay
  // until the outermost segment is fully processed, so the rest of that
  // segment still reaches them.
  ++segment_depth_;
  handle_segment(pkt);
  if (--segment_depth_ == 0 && finished_) drop_callbacks();
}

void TcpConnection::handle_segment(const Packet& pkt) {
  if (pkt.has_flag(TcpFlags::kRst)) {
    if (state_ == TcpState::kSynRcvd || state_ == TcpState::kSynSent) {
      finish(TcpCloseReason::kReset);
    } else if (state_ != TcpState::kClosed) {
      finish(TcpCloseReason::kReset);
    }
    return;
  }

  switch (state_) {
    case TcpState::kSynSent: {
      if (pkt.has_flag(TcpFlags::kSyn) && pkt.has_flag(TcpFlags::kAck) &&
          pkt.ack == snd_nxt_) {
        irs_ = pkt.seq;
        rcv_nxt_ = pkt.seq + 1;
        snd_una_ = pkt.ack;
        retry_count_ = 0;
        rto_timer_.cancel();
        state_ = TcpState::kEstablished;
        established_at_ = sim_.now();
        host_.m_handshakes_->inc();
        send_ack();
        if (on_connected_) on_connected_();
        try_transmit();
      }
      return;
    }
    case TcpState::kSynRcvd: {
      if (pkt.has_flag(TcpFlags::kAck) && pkt.ack == snd_nxt_) {
        rto_timer_.cancel();
        retry_count_ = 0;
        state_ = TcpState::kEstablished;
        established_at_ = sim_.now();
        host_.m_handshakes_->inc();
        host_.notify_established(*this);
        // The completing ACK may already carry data.
        accept_payload(pkt);
        if (pkt.has_flag(TcpFlags::kFin)) {
          peer_fin_seq_known_ = true;
          peer_fin_seq_ = pkt.seq + pkt.payload_bytes;
        }
      }
      return;
    }
    case TcpState::kEstablished:
    case TcpState::kFinWait1:
    case TcpState::kFinWait2:
    case TcpState::kClosing:
    case TcpState::kCloseWait:
    case TcpState::kLastAck: {
      if (pkt.has_flag(TcpFlags::kAck)) handle_ack(pkt.ack);
      if (finished_) return;
      accept_payload(pkt);
      if (pkt.has_flag(TcpFlags::kFin)) {
        peer_fin_seq_known_ = true;
        peer_fin_seq_ = pkt.seq + pkt.payload_bytes;
      }
      // Consume the peer's FIN only once all data before it is in.
      if (peer_fin_seq_known_ && rcv_nxt_ == peer_fin_seq_) {
        peer_fin_seq_known_ = false;
        rcv_nxt_ += 1;
        send_ack();
        switch (state_) {
          case TcpState::kEstablished:
            state_ = TcpState::kCloseWait;
            if (on_peer_fin_) on_peer_fin_();
            break;
          case TcpState::kFinWait1:
            state_ = fin_sent_ && snd_una_ == snd_nxt_ ? TcpState::kTimeWait
                                                       : TcpState::kClosing;
            if (state_ == TcpState::kTimeWait) enter_time_wait();
            break;
          case TcpState::kFinWait2:
            enter_time_wait();
            break;
          default:
            break;
        }
      }
      return;
    }
    case TcpState::kTimeWait: {
      // ACK retransmitted FINs.
      if (pkt.has_flag(TcpFlags::kFin)) send_ack();
      return;
    }
    default:
      return;
  }
}

void TcpConnection::enter_time_wait() {
  state_ = TcpState::kTimeWait;
  auto self = weak_from_this();
  time_wait_timer_ = sim_.schedule(cfg_.time_wait, [self]() {
    if (auto conn = self.lock()) conn->finish(TcpCloseReason::kGracefulClose);
  });
}

void TcpConnection::finish(TcpCloseReason reason) {
  if (finished_) return;
  finished_ = true;
  rto_timer_.cancel();
  time_wait_timer_.cancel();
  delack_timer_.cancel();
  const TcpState prior = state_;
  state_ = TcpState::kClosed;
  if (auto listener = parent_listener_.lock(); listener && prior == TcpState::kSynRcvd) {
    if (listener->half_open_count_ > 0) --listener->half_open_count_;
    listener->drop_callback_if_done();
  }
  auto self = shared_from_this();  // survive map erasure below
  host_.remove_connection(*this);
  if (on_closed_) on_closed_(reason);
  if (segment_depth_ == 0) drop_callbacks();
}

void TcpConnection::drop_callbacks() {
  // Swapped out first: a callback's captures may own this connection.
  ConnectedFn{}.swap(on_connected_);
  DataFn{}.swap(on_data_);
  ClosedFn{}.swap(on_closed_);
  PeerFinFn{}.swap(on_peer_fin_);
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

void TcpListener::close() {
  open_ = false;
  drop_callback_if_done();
}

void TcpListener::accept(const std::shared_ptr<TcpConnection>& conn) {
  if (!on_accept_) return;
  accepting_ = true;
  on_accept_(conn);
  accepting_ = false;
  drop_callback_if_done();
}

void TcpListener::drop_callback_if_done() {
  // Closed, no embryo left to complete and not inside on_accept: nothing
  // can invoke on_accept again.
  if (!open_ && half_open_count_ == 0 && !accepting_) AcceptFn{}.swap(on_accept_);
}

// ---------------------------------------------------------------------------
// TcpHost
// ---------------------------------------------------------------------------

TcpHost::TcpHost(Node& node, TcpConfig cfg) : node_{node}, cfg_{cfg} {
  auto& reg = obs::MetricsRegistry::global();
  m_handshakes_ = &reg.counter("net.tcp.handshakes");
  m_retransmits_ = &reg.counter("net.tcp.retransmits");
  m_rst_sent_ = &reg.counter("net.tcp.rst_sent");
  m_syn_cookies_sent_ = &reg.counter("net.tcp.syn_cookies_sent");
  m_syn_cookies_accepted_ = &reg.counter("net.tcp.syn_cookies_accepted");
  m_syn_cookies_rejected_ = &reg.counter("net.tcp.syn_cookies_rejected");
  m_active_connections_ = &reg.gauge("net.tcp.active_connections");
  // Deterministic per-host secret: a fixed constant mixed with the host
  // address. Real stacks draw this from the CSPRNG at boot; here same-seed
  // reproducibility is the point, and within a run the secret is exactly as
  // unguessable to simulated peers as a random one.
  cookie_secret_ = 0x9e3779b97f4a7c15ull ^ (std::uint64_t{node.address().bits()} << 17);
}

TcpHost::~TcpHost() {
  for (auto& entry : connections_) entry.second->drop_callbacks();
  for (auto& entry : listeners_) {
    if (auto listener = entry.second.lock()) TcpListener::AcceptFn{}.swap(listener->on_accept_);
  }
}

void TcpHost::set_syn_cookies(bool on, std::size_t watermark) {
  cfg_.syn_cookies = on;
  if (watermark != 0) cfg_.syn_cookie_watermark = watermark;
}

std::uint32_t TcpHost::syn_cookie_isn(Ipv4Address saddr, Ipv4Address daddr,
                                      std::uint16_t sport, std::uint16_t dport,
                                      std::uint32_t client_iss) const {
  // SplitMix64-style avalanche over the 4-tuple + client ISN + secret —
  // the same shape as secure_tcp_seq()'s siphash over (saddr, daddr,
  // sport, dport, secret), collapsed to one mixer because simulated peers
  // cannot mount key-recovery attacks.
  std::uint64_t h = cookie_secret_;
  h ^= (std::uint64_t{saddr.bits()} << 32) | daddr.bits();
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h ^= (std::uint64_t{sport} << 48) | (std::uint64_t{dport} << 32) | client_iss;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<std::uint32_t>(h);
}

void TcpHost::send_syn_cookie(const Packet& pkt, const TcpListener& listener) {
  ++syn_cookies_sent_;
  m_syn_cookies_sent_->inc();
  Packet synack;
  synack.src = node_.address();
  synack.src_port = pkt.dst_port;
  synack.dst = pkt.src;
  synack.dst_port = pkt.src_port;
  synack.proto = IpProto::kTcp;
  synack.tcp_flags = TcpFlags::kSyn | TcpFlags::kAck;
  synack.seq = syn_cookie_isn(pkt.src, pkt.dst, pkt.src_port, pkt.dst_port, pkt.seq);
  synack.ack = pkt.seq + 1;
  // Same flow-based ground truth as embryo SYN-ACKs: inherit the
  // initiator's origin so cookie replies to flood SYNs stay part of the
  // attack footprint.
  synack.origin =
      pkt.origin == TrafficOrigin::kInfrastructure ? listener.origin_ : pkt.origin;
  synack.stack_tcp = true;
  node_.send(std::move(synack));
}

bool TcpHost::try_cookie_complete(const Packet& pkt) {
  if (!cfg_.syn_cookies) return false;
  if (!pkt.has_flag(TcpFlags::kAck) || pkt.has_flag(TcpFlags::kSyn) ||
      pkt.has_flag(TcpFlags::kRst)) {
    return false;
  }
  auto lit = listeners_.find(pkt.dst_port);
  if (lit == listeners_.end()) return false;
  auto listener = lit->second.lock();
  if (!listener || !listener->open_) return false;

  // The completing ACK acknowledges cookie+1 and its seq is client_iss+1.
  // This also validates the first data segment if the bare ACK was lost —
  // the same recovery real SYN-cookie stacks rely on.
  const std::uint32_t client_iss = pkt.seq - 1;
  const std::uint32_t expected =
      syn_cookie_isn(pkt.src, pkt.dst, pkt.src_port, pkt.dst_port, client_iss);
  if (pkt.ack - 1 != expected) {
    ++syn_cookies_rejected_;
    m_syn_cookies_rejected_->inc();
    return false;  // caller falls through to the RST path
  }

  ++syn_cookies_accepted_;
  m_syn_cookies_accepted_->inc();
  Endpoint local{node_.address(), pkt.dst_port};
  Endpoint remote{pkt.src, pkt.src_port};
  const TrafficOrigin conn_origin =
      pkt.origin == TrafficOrigin::kInfrastructure ? listener->origin_ : pkt.origin;
  auto conn =
      std::shared_ptr<TcpConnection>(new TcpConnection{*this, local, remote, conn_origin});
  register_connection(conn);
  conn->start_cookie_accept(client_iss, expected);
  ++listener->accepted_;
  listener->accept(conn);
  // The validated ACK may already carry data or a FIN; run it through the
  // established state machine.
  conn->on_segment(pkt);
  return true;
}

std::uint32_t TcpHost::random_iss() {
  // xorshift; determinism comes from per-host call order, which the
  // simulator makes reproducible.
  iss_state_ ^= iss_state_ << 13;
  iss_state_ ^= iss_state_ >> 17;
  iss_state_ ^= iss_state_ << 5;
  return iss_state_;
}

std::shared_ptr<TcpListener> TcpHost::listen(std::uint16_t port, std::size_t backlog,
                                             TrafficOrigin origin) {
  if (auto it = listeners_.find(port); it != listeners_.end() && !it->second.expired()) {
    throw std::invalid_argument("TcpHost::listen: port already listening");
  }
  auto listener = std::shared_ptr<TcpListener>(new TcpListener{*this, port, backlog, origin});
  listeners_[port] = listener;
  return listener;
}

std::shared_ptr<TcpConnection> TcpHost::connect(Endpoint remote, TrafficOrigin origin) {
  Endpoint local{node_.address(), 0};
  ConnKey key;
  do {
    local.port = node_.allocate_ephemeral_port();
    key = ConnKey{local.port, remote};
  } while (connections_.contains(key));

  auto conn = std::shared_ptr<TcpConnection>(new TcpConnection{*this, local, remote, origin});
  connections_[key] = conn;
  m_active_connections_->add(1.0);
  conn->start_connect();
  return conn;
}

void TcpHost::register_connection(std::shared_ptr<TcpConnection> conn) {
  connections_[ConnKey{conn->local().port, conn->remote()}] = std::move(conn);
  m_active_connections_->add(1.0);
}

void TcpHost::remove_connection(const TcpConnection& conn) {
  if (connections_.erase(ConnKey{conn.local().port, conn.remote()}) > 0) {
    m_active_connections_->add(-1.0);
  }
}

void TcpHost::notify_established(TcpConnection& conn) {
  auto listener = conn.parent_listener_.lock();
  if (!listener) return;
  if (listener->half_open_count_ > 0) --listener->half_open_count_;
  ++listener->accepted_;
  conn.parent_listener_.reset();
  listener->accept(conn.shared_from_this());
}

void TcpHost::send_rst_for(const Packet& pkt) {
  ++rst_sent_;
  m_rst_sent_->inc();
  Packet rst;
  rst.src = pkt.dst;
  rst.src_port = pkt.dst_port;
  rst.dst = pkt.src;
  rst.dst_port = pkt.src_port;
  rst.proto = IpProto::kTcp;
  rst.tcp_flags = TcpFlags::kRst | TcpFlags::kAck;
  rst.seq = pkt.ack;
  rst.ack = pkt.seq + pkt.payload_bytes + (pkt.has_flag(TcpFlags::kSyn) ? 1 : 0);
  // Flow-based ground truth (CICIDS-style): every packet of a flow whose
  // initiator was malicious is malicious, including stack-generated
  // responses — a RST provoked by a flood segment is part of the attack's
  // on-wire footprint.
  rst.origin = pkt.origin;
  rst.stack_tcp = true;
  node_.send(std::move(rst));
}

void TcpHost::deliver(const Packet& pkt) {
  const ConnKey key{pkt.dst_port, Endpoint{pkt.src, pkt.src_port}};
  if (auto it = connections_.find(key); it != connections_.end()) {
    it->second->on_segment(pkt);
    return;
  }

  // New connection attempt?
  if (pkt.has_flag(TcpFlags::kSyn) && !pkt.has_flag(TcpFlags::kAck)) {
    if (auto lit = listeners_.find(pkt.dst_port); lit != listeners_.end()) {
      auto listener = lit->second.lock();
      if (listener && listener->open_) {
        if (cfg_.syn_cookies) {
          // Above the watermark the listener stops investing state in
          // unproven peers: answer statelessly and keep the remaining
          // backlog for the pre-flood embryos already in flight.
          const std::size_t watermark = cfg_.syn_cookie_watermark != 0
                                            ? cfg_.syn_cookie_watermark
                                            : listener->backlog_ / 2;
          if (listener->half_open_count_ >= watermark) {
            send_syn_cookie(pkt, *listener);
            return;
          }
        }
        if (listener->half_open_count_ >= listener->backlog_) {
          ++listener->backlog_drops_;  // backlog exhausted: silently drop
          return;
        }
        ++listener->half_open_count_;
        Endpoint local{node_.address(), pkt.dst_port};
        Endpoint remote{pkt.src, pkt.src_port};
        // Flow-based ground truth: the server side of a connection inherits
        // the *initiator's* origin, so SYN-ACKs answering a flood SYN are
        // part of the attack footprint while replies to a benign client
        // carry the benign protocol tag. The listener origin is the
        // fallback for untagged initiators.
        const TrafficOrigin conn_origin = pkt.origin == TrafficOrigin::kInfrastructure
                                              ? listener->origin_
                                              : pkt.origin;
        auto conn = std::shared_ptr<TcpConnection>(
            new TcpConnection{*this, local, remote, conn_origin});
        conn->parent_listener_ = listener;
        register_connection(conn);
        conn->start_accept(pkt.seq);
        return;
      }
      listeners_.erase(lit);
    }
  }

  // A stray ACK may be the completion of a stateless cookie handshake.
  if (try_cookie_complete(pkt)) return;

  // No matching state: answer with RST unless the stray segment is itself
  // a RST (never RST a RST).
  if (!pkt.has_flag(TcpFlags::kRst)) send_rst_for(pkt);
}

}  // namespace ddoshield::net
