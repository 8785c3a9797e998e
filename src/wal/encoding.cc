#include "wal/encoding.h"

#include <array>
#include <cstring>

namespace dvp::wal {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  dst->append(buf, 8);
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutVarsint64(std::string* dst, int64_t v) {
  uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63);
  PutVarint64(dst, zz);
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

bool Decoder::GetFixed32(uint32_t* v) {
  if (data_.size() < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(data_[i]))
           << (8 * i);
  }
  *v = out;
  data_.remove_prefix(4);
  return true;
}

bool Decoder::GetFixed64(uint64_t* v) {
  if (data_.size() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(data_[i]))
           << (8 * i);
  }
  *v = out;
  data_.remove_prefix(8);
  return true;
}

bool Decoder::GetVarint64(uint64_t* v) {
  uint64_t out = 0;
  int shift = 0;
  size_t i = 0;
  while (i < data_.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(data_[i]);
    out |= static_cast<uint64_t>(byte & 0x7f) << shift;
    ++i;
    if ((byte & 0x80) == 0) {
      *v = out;
      data_.remove_prefix(i);
      return true;
    }
    shift += 7;
  }
  return false;
}

bool Decoder::GetVarsint64(int64_t* v) {
  uint64_t zz;
  if (!GetVarint64(&zz)) return false;
  *v = static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  return true;
}

bool Decoder::GetLengthPrefixed(std::string_view* s) {
  uint64_t len;
  if (!GetVarint64(&len)) return false;
  if (data_.size() < len) return false;
  *s = data_.substr(0, len);
  data_.remove_prefix(len);
  return true;
}

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected Castagnoli polynomial: tables[0] is
/// the bytewise table, and tables[k][b] is the CRC of byte b followed by k
/// zero bytes, so eight table lookups advance the CRC by eight bytes.
CrcTables MakeCrcTables() {
  CrcTables tables{};
  constexpr uint32_t kPoly = 0x82f63b78;  // reflected Castagnoli
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

/// Little-endian load, whatever the host's byte order and the pointer's
/// alignment.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(std::string_view data) {
  static const CrcTables kT = MakeCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xffffffff;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    crc = kT[7][lo & 0xff] ^ kT[6][(lo >> 8) & 0xff] ^
          kT[5][(lo >> 16) & 0xff] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xff] ^
          kT[2][(hi >> 8) & 0xff] ^ kT[1][(hi >> 16) & 0xff] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = kT[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffff;
}

}  // namespace dvp::wal
