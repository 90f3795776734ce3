// JAMM directory schema conventions: how sensors, gateways, and archives
// publish themselves. The paper's Sensor Data GUI "lists all sensors
// stored in a specific LDAP server, and displays their current status,
// including such details as frequency, duration, startup time, current
// number of consumers, and last message" — those are the attributes here.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "directory/entry.hpp"

namespace jamm::directory::schema {

// objectclass values
inline constexpr char kSensorClass[] = "jammSensor";
inline constexpr char kGatewayClass[] = "jammGateway";
inline constexpr char kArchiveClass[] = "jammArchive";
inline constexpr char kHostClass[] = "jammHost";
inline constexpr char kSummaryClass[] = "jammSummary";
/// A federation level (ISSUE 6): a republisher gateway re-exporting the
/// merged stream of its children. Carries tier + children attrs so
/// consumers can discover the nearest tier that covers what they watch.
inline constexpr char kFederationClass[] = "jammFederation";

// attribute names (lower-case, the directory's canonical form)
inline constexpr char kAttrObjectClass[] = "objectclass";
inline constexpr char kAttrHost[] = "host";
inline constexpr char kAttrSensorName[] = "sensorname";
inline constexpr char kAttrSensorType[] = "sensortype";
inline constexpr char kAttrGateway[] = "gateway";        // gateway address
inline constexpr char kAttrFrequencyMs[] = "frequencyms";
inline constexpr char kAttrStatus[] = "status";          // running | stopped
inline constexpr char kAttrStartTime[] = "starttime";    // ULM DATE
inline constexpr char kAttrConsumers[] = "consumers";    // current count
inline constexpr char kAttrLastMessage[] = "lastmessage";
inline constexpr char kAttrAddress[] = "address";
inline constexpr char kAttrContents[] = "contents";      // archive contents
inline constexpr char kAttrSegments[] = "segments";      // archive segments
inline constexpr char kAttrSpanMin[] = "spanmin";        // oldest record, ULM DATE
inline constexpr char kAttrSpanMax[] = "spanmax";        // newest record, ULM DATE
inline constexpr char kAttrMetric[] = "metric";          // summary data name
inline constexpr char kAttrValue[] = "value";            // summary data value
/// Lease expiry (ISSUE 4), microseconds on the deployment's injected
/// clock. An entry carrying this attribute is liveness-tracked: its owner
/// renews it via heartbeats and the directory's reaper tombstones it once
/// overdue. Entries without it (hosts, archives) are immortal.
inline constexpr char kAttrLeaseExpires[] = "leaseexpires";
/// Federation level height (ISSUE 6): 0 = a leaf (host) gateway, each
/// republisher is one more than its tallest child. Decimal string.
inline constexpr char kAttrTier[] = "tier";
/// Comma-separated names of the level's direct children — child federation
/// levels for mid-tiers, leaf gateway names at the bottom.
inline constexpr char kAttrChildren[] = "children";

/// Attributes the directory keeps an equality index on (server.hpp): the
/// keys of every discovery filter. Not leaseexpires — its stored value
/// goes stale, because renewals only move the lease cell.
inline constexpr std::array<std::string_view, 2> kIndexedAttrs = {
    kAttrObjectClass, kAttrHost};

/// Whether `attr` (lower-case, the canonical form) is in kIndexedAttrs.
inline bool IsIndexed(std::string_view attr) {
  return std::find(kIndexedAttrs.begin(), kIndexedAttrs.end(), attr) !=
         kIndexedAttrs.end();
}

/// "host=<host>, <suffix>"
Dn HostDn(const Dn& suffix, const std::string& host);
/// "cn=<sensor>, host=<host>, <suffix>"
Dn SensorDn(const Dn& suffix, const std::string& host,
            const std::string& sensor_name);
/// "cn=gateway, host=<host>, <suffix>"
Dn GatewayDn(const Dn& suffix, const std::string& host);
/// "cn=<archive>, ou=archives, <suffix>"
Dn ArchiveDn(const Dn& suffix, const std::string& archive_name);
/// "cn=<level>, ou=federation, <suffix>"
Dn FederationDn(const Dn& suffix, const std::string& level_name);

Entry MakeHostEntry(const Dn& suffix, const std::string& host);

/// Publication entry for an active sensor; `gateway_address` is where
/// consumers subscribe (paper: "publish the location of all sensors and
/// their associated gateway").
Entry MakeSensorEntry(const Dn& suffix, const std::string& host,
                      const std::string& sensor_name,
                      const std::string& sensor_type,
                      const std::string& gateway_address,
                      std::int64_t frequency_ms, TimePoint start_time);

Entry MakeGatewayEntry(const Dn& suffix, const std::string& host,
                       const std::string& address);

/// `segments` and the [span_min, span_max] record-time span (ISSUE 5) let
/// consumers judge an archive's coverage from the directory alone; a span
/// of {0, 0} (empty archive) publishes no span attributes.
Entry MakeArchiveEntry(const Dn& suffix, const std::string& archive_name,
                       const std::string& address,
                       const std::string& contents,
                       std::uint64_t segments = 0, TimePoint span_min = 0,
                       TimePoint span_max = 0);

/// Summary-data publication (paper §7.0: "network sensors publish summary
/// throughput and latency data in the directory service").
Entry MakeSummaryEntry(const Dn& suffix, const std::string& host,
                       const std::string& metric, double value);

/// Publication entry for one federation level (ISSUE 6): where to
/// subscribe (`address`), how high it sits (`tier`), and which levels or
/// leaf gateways feed it (`children`).
Entry MakeFederationEntry(const Dn& suffix, const std::string& level_name,
                          const std::string& address, int tier,
                          const std::vector<std::string>& children);

// ----------------------------------------------------------------- leases

/// Stamp (or renew) `entry`'s lease to expire at `expiry`.
void StampLease(Entry& entry, TimePoint expiry);

/// The entry's lease expiry, or nullopt if it carries none (immortal).
std::optional<TimePoint> LeaseExpiry(const Entry& entry);

}  // namespace jamm::directory::schema
