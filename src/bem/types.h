#ifndef DYNAPROX_BEM_TYPES_H_
#define DYNAPROX_BEM_TYPES_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace dynaprox::bem {

// The dpcKey of the paper (4.3.3): an integer shared between the BEM's
// cache directory and the DPC's slot array. Using the common integer key is
// what removes the need for explicit BEM->DPC control messages.
//
// A key names a slot and the generation of the slot's occupant:
// key = generation * capacity + slot, where `capacity` is the slot count
// and the generation counts the slot's earlier assignments. A slot's first
// occupant therefore has key == slot, and a reassigned slot never repeats
// a key: the DPC can tell a fragment from the slot's previous occupant.
// 64 bits keep the generation from wrapping.
using DpcKey = uint64_t;

inline constexpr DpcKey kInvalidDpcKey = UINT64_MAX;

// The slot `key` addresses in a key space of `capacity` slots.
inline constexpr DpcKey SlotOf(DpcKey key, DpcKey capacity) {
  return key % capacity;
}

// Identifies a fragment: code-block name plus its parameter list
// (paper 4.3.3: "fragmentID: unique fragment identifier
// (name+parameterList)"). Parameters are kept sorted so the canonical form
// is order-insensitive.
struct FragmentId {
  std::string name;
  std::map<std::string, std::string> params;

  FragmentId() = default;
  explicit FragmentId(std::string name_in) : name(std::move(name_in)) {}
  FragmentId(std::string name_in, std::map<std::string, std::string> params_in)
      : name(std::move(name_in)), params(std::move(params_in)) {}

  // Canonical directory key: "name" or "name?k1=v1&k2=v2".
  std::string Canonical() const {
    std::string out = name;
    char sep = '?';
    for (const auto& [key, value] : params) {
      out += sep;
      out += key;
      out += '=';
      out += value;
      sep = '&';
    }
    return out;
  }

  friend bool operator==(const FragmentId& a, const FragmentId& b) {
    return a.name == b.name && a.params == b.params;
  }
  friend bool operator<(const FragmentId& a, const FragmentId& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.params < b.params;
  }
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_TYPES_H_
