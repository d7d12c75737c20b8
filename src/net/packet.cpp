#include "net/packet.hpp"

namespace ddoshield::net {

std::string to_string(TrafficOrigin origin) {
  switch (origin) {
    case TrafficOrigin::kHttp: return "http";
    case TrafficOrigin::kVideo: return "video";
    case TrafficOrigin::kFtp: return "ftp";
    case TrafficOrigin::kMiraiScan: return "mirai-scan";
    case TrafficOrigin::kMiraiC2: return "mirai-c2";
    case TrafficOrigin::kMiraiSynFlood: return "mirai-syn-flood";
    case TrafficOrigin::kMiraiAckFlood: return "mirai-ack-flood";
    case TrafficOrigin::kMiraiUdpFlood: return "mirai-udp-flood";
    case TrafficOrigin::kInfrastructure: return "infra";
  }
  return "?";
}

TrafficClass traffic_class_of(TrafficOrigin origin) {
  switch (origin) {
    case TrafficOrigin::kMiraiScan:
    case TrafficOrigin::kMiraiC2:
    case TrafficOrigin::kMiraiSynFlood:
    case TrafficOrigin::kMiraiAckFlood:
    case TrafficOrigin::kMiraiUdpFlood:
      return TrafficClass::kMalicious;
    default:
      return TrafficClass::kBenign;
  }
}

}  // namespace ddoshield::net
