// TCP over the simulated network.
//
// The implementation covers the behaviours the testbed's experiments and
// features actually depend on:
//   * three-way handshake with SYN retransmission and exponential backoff;
//   * listener backlog so SYN floods exhaust half-open slots and starve
//     legitimate connects (the core DDoS effect on the TServer);
//   * in-order byte-stream delivery with cumulative ACKs, out-of-order
//     buffering, and timeout-driven retransmission;
//   * slow-start/AIMD-style congestion window so floods collapse benign
//     goodput through loss, not just queueing;
//   * FIN teardown, RST on stray segments (what an ACK flood provokes).
//
// Apps exchange "app messages": a byte count plus an optional short string
// (request line, command). The byte count is segmented at MSS and drives
// all wire-level behaviour; the string rides on the first segment of its
// message and is handed to the peer app when that segment is delivered
// in order. The IDS sees only headers, sizes, and timing — as in the paper.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "net/simulator.hpp"

namespace ddoshield::obs {
class Counter;
class Gauge;
}

namespace ddoshield::net {

class Node;
class TcpHost;
class TcpListener;

enum class TcpState {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

std::string to_string(TcpState s);

/// Why a connection ended, reported through on_closed.
enum class TcpCloseReason {
  kGracefulClose,   // FIN exchange completed
  kReset,           // peer sent RST
  kConnectTimeout,  // SYN retries exhausted
  kRetransmitLimit, // data retransmission retries exhausted
  kAborted,         // local abort()
};

struct TcpConfig {
  std::uint32_t mss = 1460;
  std::uint32_t receive_window = 64 * 1024;
  std::uint32_t initial_cwnd_segments = 10;
  util::SimTime base_rto = util::SimTime::millis(250);
  util::SimTime syn_rto = util::SimTime::millis(500);
  int max_syn_retries = 4;
  int max_synack_retries = 3;
  int max_data_retries = 6;
  util::SimTime time_wait = util::SimTime::seconds(1);
  /// SYN-cookie defense (off by default; behavior is bit-identical to the
  /// pre-cookie stack until enabled). When any listener's half-open count
  /// reaches the watermark, further SYNs are answered statelessly: the
  /// SYN-ACK's ISN is a keyed hash of the 4-tuple and the client ISN, no
  /// embryo is created, and the completing ACK is validated by recomputing
  /// the hash — so a SYN flood stops consuming backlog slots.
  bool syn_cookies = false;
  /// Half-open threshold that activates cookies; 0 means backlog / 2.
  std::size_t syn_cookie_watermark = 0;
};

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using ConnectedFn = std::function<void()>;
  using DataFn = std::function<void(std::uint32_t bytes, const std::string& app_data)>;
  using ClosedFn = std::function<void(TcpCloseReason)>;
  using PeerFinFn = std::function<void()>;

  TcpState state() const { return state_; }
  Endpoint local() const { return local_; }
  Endpoint remote() const { return remote_; }
  TrafficOrigin origin() const { return origin_; }

  void set_on_connected(ConnectedFn fn) { on_connected_ = std::move(fn); }
  void set_on_data(DataFn fn) { on_data_ = std::move(fn); }
  void set_on_closed(ClosedFn fn) { on_closed_ = std::move(fn); }
  /// Fires when the peer half-closes (its FIN is consumed in ESTABLISHED);
  /// typical servers reply-then-close from here.
  void set_on_peer_fin(PeerFinFn fn) { on_peer_fin_ = std::move(fn); }

  /// Queues an app message of `bytes` payload; `app_data` rides on the
  /// first segment. Legal in ESTABLISHED and CLOSE_WAIT.
  void send(std::uint32_t bytes, std::string app_data = {});

  /// Graceful close: flush pending data, then FIN.
  void close();

  /// Abortive close: RST to the peer, drop all state.
  void abort();

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  util::SimTime established_at() const { return established_at_; }

 private:
  friend class TcpHost;

  struct Segment {
    std::uint32_t seq = 0;
    std::uint32_t len = 0;
    std::string app_data;
    bool fin = false;
  };

  TcpConnection(TcpHost& host, Endpoint local, Endpoint remote, TrafficOrigin origin);

  // Client-side open; sends SYN.
  void start_connect();
  // Server-side embryo created by a listener upon SYN; sends SYN-ACK.
  void start_accept(std::uint32_t peer_iss);
  // Server side reconstructed from a validated SYN-cookie ACK: no embryo
  // ever existed, so the connection starts directly ESTABLISHED with the
  // cookie as its ISS.
  void start_cookie_accept(std::uint32_t peer_iss, std::uint32_t cookie_iss);

  void on_segment(const Packet& pkt);
  void handle_segment(const Packet& pkt);
  void send_segment(std::uint8_t flags, std::uint32_t seq, std::uint32_t len,
                    std::string app_data, bool count_payload = true);
  void send_ack();
  void try_transmit();
  void enqueue_fin();
  void arm_retransmit_timer(util::SimTime rto);
  void on_retransmit_timeout();
  void handle_ack(std::uint32_t ack);
  void accept_payload(const Packet& pkt);
  void deliver_in_order();
  void enter_time_wait();
  void finish(TcpCloseReason reason);
  /// Releases the app callbacks. They often capture this connection's own
  /// shared_ptr, so a closed connection that kept them would never be
  /// freed.
  void drop_callbacks();

  TcpHost& host_;
  Simulator& sim_;
  Endpoint local_;
  Endpoint remote_;
  TrafficOrigin origin_;
  TcpConfig cfg_;
  TcpState state_ = TcpState::kClosed;

  // send side
  std::uint32_t iss_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::deque<Segment> unsent_;
  std::deque<Segment> inflight_;
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;
  int retry_count_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;

  // receive side
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, Segment> out_of_order_;
  bool peer_fin_seq_known_ = false;
  std::uint32_t peer_fin_seq_ = 0;

  EventHandle rto_timer_;
  EventHandle time_wait_timer_;
  EventHandle delack_timer_;
  int delayed_ack_pending_ = 0;

  ConnectedFn on_connected_;
  DataFn on_data_;
  ClosedFn on_closed_;
  PeerFinFn on_peer_fin_;
  std::weak_ptr<TcpListener> parent_listener_;  // set while an embryo

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t retransmissions_ = 0;
  util::SimTime established_at_;
  bool finished_ = false;
  int segment_depth_ = 0;  // on_segment() frames on the stack
};

/// A listening TCP port with a finite half-open backlog.
class TcpListener {
 public:
  using AcceptFn = std::function<void(std::shared_ptr<TcpConnection>)>;

  std::uint16_t port() const { return port_; }
  std::size_t half_open() const { return half_open_count_; }
  std::uint64_t backlog_drops() const { return backlog_drops_; }
  std::uint64_t accepted() const { return accepted_; }

  void set_on_accept(AcceptFn fn) { on_accept_ = std::move(fn); }
  /// Stops accepting. on_accept, which may capture this listener, is
  /// dropped once no half-open connection is left to complete and it is
  /// not running.
  void close();

 private:
  friend class TcpHost;
  friend class TcpConnection;
  TcpListener(TcpHost& host, std::uint16_t port, std::size_t backlog, TrafficOrigin origin)
      : host_{&host}, port_{port}, backlog_{backlog}, origin_{origin} {}

  /// Hands an established connection to on_accept. The caller holds a
  /// shared_ptr to this listener, so dropping a self-capturing callback
  /// here cannot free it mid-call.
  void accept(const std::shared_ptr<TcpConnection>& conn);
  void drop_callback_if_done();

  TcpHost* host_;
  std::uint16_t port_;
  std::size_t backlog_;
  TrafficOrigin origin_;
  AcceptFn on_accept_;
  std::size_t half_open_count_ = 0;
  std::uint64_t backlog_drops_ = 0;
  std::uint64_t accepted_ = 0;
  bool open_ = true;
  bool accepting_ = false;  // inside on_accept_
};

/// Per-node TCP demultiplexer and connection factory.
class TcpHost {
 public:
  TcpHost(Node& node, TcpConfig cfg = {});
  /// Drops the callbacks of every connection and listener still open, so
  /// the cycles they close through their own shared_ptrs are freed.
  ~TcpHost();
  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  /// Starts listening; `origin` labels stack-generated replies
  /// (SYN-ACKs, ACKs) of accepted connections.
  std::shared_ptr<TcpListener> listen(std::uint16_t port, std::size_t backlog = 128,
                                      TrafficOrigin origin = TrafficOrigin::kInfrastructure);

  /// Opens a client connection from an ephemeral port.
  std::shared_ptr<TcpConnection> connect(Endpoint remote, TrafficOrigin origin);

  /// Called by the node for every locally-addressed TCP packet.
  void deliver(const Packet& pkt);

  Node& node() { return node_; }
  const TcpConfig& config() const { return cfg_; }

  /// Flips the SYN-cookie defense at runtime (the mitigation controller's
  /// enforcement point). watermark == 0 keeps the configured/default one.
  void set_syn_cookies(bool on, std::size_t watermark = 0);
  bool syn_cookies_enabled() const { return cfg_.syn_cookies; }

  /// Keyed-hash ISN for a stateless SYN-ACK, in the spirit of Linux
  /// secure_seq.h: a deterministic mix of the 4-tuple, the client's ISN,
  /// and a per-host secret, so only a peer that really received our
  /// SYN-ACK can produce the completing ACK.
  std::uint32_t syn_cookie_isn(Ipv4Address saddr, Ipv4Address daddr, std::uint16_t sport,
                               std::uint16_t dport, std::uint32_t client_iss) const;

  std::uint64_t rst_sent() const { return rst_sent_; }
  std::uint64_t syn_cookies_sent() const { return syn_cookies_sent_; }
  std::uint64_t syn_cookies_accepted() const { return syn_cookies_accepted_; }
  std::uint64_t syn_cookies_rejected() const { return syn_cookies_rejected_; }
  std::size_t active_connections() const { return connections_.size(); }

 private:
  friend class TcpConnection;
  friend class TcpListener;

  struct ConnKey {
    std::uint16_t local_port;
    Endpoint remote;
    friend auto operator<=>(const ConnKey&, const ConnKey&) = default;
  };

  void register_connection(std::shared_ptr<TcpConnection> conn);
  void remove_connection(const TcpConnection& conn);
  void notify_established(TcpConnection& conn);
  void send_rst_for(const Packet& pkt);
  std::uint32_t random_iss();

  /// Answers a SYN with a stateless cookie SYN-ACK (no embryo).
  void send_syn_cookie(const Packet& pkt, const TcpListener& listener);
  /// Tries to complete a cookie handshake from a stray ACK; returns true
  /// if the segment was consumed (connection created or cookie rejected
  /// into the RST path by the caller).
  bool try_cookie_complete(const Packet& pkt);

  Node& node_;
  TcpConfig cfg_;
  std::map<ConnKey, std::shared_ptr<TcpConnection>> connections_;
  std::map<std::uint16_t, std::weak_ptr<TcpListener>> listeners_;
  std::uint64_t rst_sent_ = 0;
  std::uint64_t syn_cookies_sent_ = 0;
  std::uint64_t syn_cookies_accepted_ = 0;
  std::uint64_t syn_cookies_rejected_ = 0;
  std::uint32_t iss_state_ = 0x12345678;
  std::uint64_t cookie_secret_ = 0;  // per-host, fixed at construction

  // Aggregate registry instruments (shared across hosts), resolved once.
  obs::Counter* m_handshakes_;
  obs::Counter* m_retransmits_;
  obs::Counter* m_rst_sent_;
  obs::Counter* m_syn_cookies_sent_;
  obs::Counter* m_syn_cookies_accepted_;
  obs::Counter* m_syn_cookies_rejected_;
  obs::Gauge* m_active_connections_;
};

}  // namespace ddoshield::net
