#ifndef DYNAPROX_BEM_TAG_CODEC_H_
#define DYNAPROX_BEM_TAG_CODEC_H_

#include <string>
#include <string_view>

#include "bem/types.h"

namespace dynaprox::bem {

// Frames SET/GET instructions inside a response template (paper 4.3.2).
// Wire grammar (STX = \x02, ETX = \x03):
//
//   set-open:  STX 'S' hex-key ETX        -- followed by fragment bytes
//   set-close: STX 'E' ETX
//   get:       STX 'G' hex-key ETX
//   literal:   STX 'L' ETX                -- one literal STX byte in content
//
// Everything outside tags is literal page text. Literal STX bytes in user
// content are escaped as STX 'L' ETX so the scanner never misparses content
// as a tag; ETX needs no escaping because it is only special after STX.
// Escaping costs one copy of the bytes: each STX-free run is found with one
// memchr and appended whole.
//
// The key is the whole dpcKey, generation included (bem::DpcKey: key =
// generation * capacity + slot), written as one hex run; the grammar has
// no separate generation field. The DPC matches a GET only to a slot that
// holds exactly that key, so a GET never splices the slot's previous or
// next occupant.
//
// A GET tag is 3 bytes plus the minimal hex digits of its key (GetTagSize),
// so small key spaces realize tags well under the paper's Table 2 g = 10:
// 4.4 B per GET on perfbench's hot_small (keys 0..0x27). A slot's first
// assignment keeps key == slot, and each reassignment adds `capacity`:
// with 1,024 slots a key has three hex digits for its slot's first four
// assignments and four up to the 64th.
class TagCodec {
 public:
  static constexpr char kStx = '\x02';
  static constexpr char kEtx = '\x03';

  // Appends `text` to `out` with every STX byte escaped.
  static void AppendLiteral(std::string_view text, std::string& out);

  // Appends "store fragment under `key`" framing around escaped `content`.
  static void AppendSet(DpcKey key, std::string_view content,
                        std::string& out);

  // Appends "splice cached fragment `key` here".
  static void AppendGet(DpcKey key, std::string& out);

  // Bytes AppendGet would produce for `key` (the realized tag size g).
  static size_t GetTagSize(DpcKey key);

  // Bytes of framing overhead AppendSet adds beyond the escaped content:
  // the set-open tag plus the 3-byte set-close.
  static size_t SetFramingSize(DpcKey key) { return GetTagSize(key) + 3; }
};

}  // namespace dynaprox::bem

#endif  // DYNAPROX_BEM_TAG_CODEC_H_
