// Unit tests for the memory substrate: segment images, PTE/auxpte
// semantics, address spaces, translation, and the lazy-remap state sync.
#include <gtest/gtest.h>

#include "src/mem/address_space.h"
#include "src/mem/page.h"
#include "src/mem/segment.h"
#include "src/mem/segment_image.h"

namespace {

using mmem::Access;
using mmem::AddressSpace;
using mmem::AuxPte;
using mmem::kPageSize;
using mmem::kShmArenaBase;
using mmem::PageBytes;
using mmem::SegmentImage;
using mmem::SegmentMeta;
using mmem::VAddr;

SegmentMeta Meta(int id, std::uint32_t size, int library = 0) {
  SegmentMeta m;
  m.id = id;
  m.key = 1000 + id;
  m.size_bytes = size;
  m.library_site = library;
  return m;
}

TEST(SiteMask, BasicOperations) {
  mmem::SiteMask m = 0;
  m |= mmem::MaskOf(0);
  m |= mmem::MaskOf(5);
  m |= mmem::MaskOf(63);
  EXPECT_TRUE(mmem::MaskHas(m, 0));
  EXPECT_TRUE(mmem::MaskHas(m, 5));
  EXPECT_TRUE(mmem::MaskHas(m, 63));
  EXPECT_FALSE(mmem::MaskHas(m, 1));
  EXPECT_EQ(mmem::MaskCount(m), 3);
}

TEST(SiteMask, WideSites) {
  // The mask spans kMaxSites sites; bits past 63 land in higher words.
  mmem::SiteMask m = 0;
  m |= mmem::MaskOf(64);
  m |= mmem::MaskOf(200);
  m |= mmem::MaskOf(mmem::kMaxSites - 1);
  EXPECT_TRUE(mmem::MaskHas(m, 64));
  EXPECT_TRUE(mmem::MaskHas(m, 200));
  EXPECT_TRUE(mmem::MaskHas(m, mmem::kMaxSites - 1));
  EXPECT_FALSE(mmem::MaskHas(m, 63));
  EXPECT_EQ(mmem::MaskCount(m), 3);
  EXPECT_EQ(mmem::MaskLowest(m), 64);
  EXPECT_NE(m, 0u);
  m &= ~mmem::MaskOf(64);
  m ^= mmem::MaskOf(200);
  EXPECT_EQ(mmem::MaskCount(m), 1);
  EXPECT_EQ(m, mmem::MaskOf(mmem::kMaxSites - 1));
  EXPECT_EQ(mmem::MaskLowest(mmem::SiteMask{0}), -1);
  // Word-0 masks keep the old uint64_t text form; wide masks go hex.
  EXPECT_EQ(mmem::MaskToString(mmem::MaskOf(5)), "32");
  EXPECT_EQ(mmem::MaskToString(mmem::MaskOf(64))[1], 'x');
}

TEST(SegmentMeta, PageCountRoundsUp) {
  EXPECT_EQ(Meta(1, 512).PageCount(), 1);
  EXPECT_EQ(Meta(1, 513).PageCount(), 2);
  EXPECT_EQ(Meta(1, 4096).PageCount(), 8);
  EXPECT_EQ(Meta(1, 1).PageCount(), 1);
}

TEST(SegmentImage, StartsNotPresentWithAuxBit) {
  SegmentImage img(Meta(1, 2048), 0);
  EXPECT_EQ(img.page_count(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(img.Present(i));
    EXPECT_FALSE(img.Writable(i));
    EXPECT_TRUE(img.pte(i).aux);  // the auxiliary-table bit of §6.2
  }
}

TEST(SegmentImage, InstallZeroFillAndReadBack) {
  SegmentImage img(Meta(1, 512), 0);
  img.InstallPage(0, PageBytes{}, /*writable=*/true, /*now=*/100, /*window=*/5000);
  EXPECT_TRUE(img.Present(0));
  EXPECT_TRUE(img.Writable(0));
  EXPECT_EQ(img.ReadWord(0, 0), 0u);
  EXPECT_EQ(img.aux(0).install_time, 100);
  EXPECT_EQ(img.aux(0).window_us, 5000);
}

TEST(SegmentImage, WordRoundTripLittleEndian) {
  SegmentImage img(Meta(1, 512), 0);
  img.InstallPage(0, PageBytes{}, true, 0, 0);
  img.WriteWord(0, 8, 0xA1B2C3D4u);
  EXPECT_EQ(img.ReadWord(0, 8), 0xA1B2C3D4u);
  EXPECT_EQ(img.ReadByte(0, 8), 0xD4);
  EXPECT_EQ(img.ReadByte(0, 11), 0xA1);
}

TEST(SegmentImage, CopyCarriesData) {
  SegmentImage a(Meta(1, 512), 0);
  a.InstallPage(0, PageBytes{}, true, 0, 0);
  a.WriteWord(0, 4, 777);
  PageBytes copy = a.CopyPage(0);
  SegmentImage b(Meta(1, 512), 1);
  b.InstallPage(0, copy, false, 10, 0);
  EXPECT_EQ(b.ReadWord(0, 4), 777u);
  EXPECT_FALSE(b.Writable(0));
}

TEST(SegmentImage, InvalidateDropsAccess) {
  SegmentImage img(Meta(1, 512), 0);
  img.InstallPage(0, PageBytes{}, true, 0, 0);
  img.InvalidatePage(0);
  EXPECT_FALSE(img.Present(0));
  EXPECT_THROW(img.ReadWord(0, 0), std::logic_error);
  EXPECT_THROW(img.CopyPage(0), std::logic_error);
}

TEST(SegmentImage, DowngradeKeepsDataReadable) {
  SegmentImage img(Meta(1, 512), 0);
  img.InstallPage(0, PageBytes{}, true, 0, 0);
  img.WriteWord(0, 0, 5);
  img.DowngradePage(0);
  EXPECT_TRUE(img.Present(0));
  EXPECT_FALSE(img.Writable(0));
  EXPECT_EQ(img.ReadWord(0, 0), 5u);
  EXPECT_THROW(img.WriteWord(0, 0, 6), std::logic_error);
}

TEST(SegmentImage, UpgradeRestoresWriteAndResetsWindow) {
  SegmentImage img(Meta(1, 512), 0);
  img.InstallPage(0, PageBytes{}, false, 0, 1000);
  img.UpgradePage(0, 500, 2000);
  EXPECT_TRUE(img.Writable(0));
  EXPECT_EQ(img.aux(0).install_time, 500);
  EXPECT_EQ(img.aux(0).window_us, 2000);
}

TEST(SegmentImage, GuardsInvalidOperations) {
  SegmentImage img(Meta(1, 1024), 0);
  EXPECT_THROW(img.DowngradePage(0), std::logic_error);     // not writable
  EXPECT_THROW(img.UpgradePage(0, 0, 0), std::logic_error); // not present
  img.InstallPage(0, PageBytes{}, true, 0, 0);
  EXPECT_THROW(img.ReadWord(0, 510), std::logic_error);     // word straddles page end
  EXPECT_THROW(img.ReadWord(0, 2), std::logic_error);       // misaligned
  EXPECT_THROW(img.ReadWord(0, -4), std::logic_error);
  EXPECT_THROW(img.InstallPage(1, PageBytes(100, 0), false, 0, 0),
               std::logic_error);                           // short data
}

// ---- AddressSpace ----

TEST(AddressSpace, FirstFitPlacesAtArenaBase) {
  SegmentImage img(Meta(1, 2048), 0);
  AddressSpace as;
  auto base = as.Attach(&img, std::nullopt, true);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(*base, kShmArenaBase);
  EXPECT_EQ(as.TotalSharedPages(), 4);
}

TEST(AddressSpace, FixedAddressAttachAndDifferentRangesPerProcess) {
  // "Unlike other sharing models, processes can share locations at
  // different virtual address ranges." (§2.2)
  SegmentImage img(Meta(1, 512), 0);
  AddressSpace a;
  AddressSpace b;
  EXPECT_EQ(a.Attach(&img, VAddr{0x40000000}, true).value(), 0x40000000u);
  EXPECT_EQ(b.Attach(&img, VAddr{0x80000000}, true).value(), 0x80000000u);
}

TEST(AddressSpace, RejectsMisalignedAndOverlapping) {
  SegmentImage img1(Meta(1, 2048), 0);
  SegmentImage img2(Meta(2, 2048), 0);
  AddressSpace as;
  EXPECT_FALSE(as.Attach(&img1, VAddr{0x1001}, true).has_value());  // misaligned
  ASSERT_TRUE(as.Attach(&img1, VAddr{0x10000}, true).has_value());
  EXPECT_FALSE(as.Attach(&img2, VAddr{0x10200}, true).has_value());  // overlaps
  EXPECT_TRUE(as.Attach(&img2, VAddr{0x20000}, true).has_value());
}

TEST(AddressSpace, FirstFitSkipsOccupiedRanges) {
  SegmentImage img1(Meta(1, 512), 0);
  SegmentImage img2(Meta(2, 512), 0);
  AddressSpace as;
  ASSERT_TRUE(as.Attach(&img1, kShmArenaBase, true).has_value());
  auto b2 = as.Attach(&img2, std::nullopt, true);
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(*b2, kShmArenaBase + kPageSize);
}

TEST(AddressSpace, ResolveMapsAddressToPageAndOffset) {
  SegmentImage img(Meta(1, 4096), 0);
  AddressSpace as;
  VAddr base = as.Attach(&img, std::nullopt, true).value();
  auto r = as.Resolve(base + 3 * kPageSize + 42);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->page, 3);
  EXPECT_EQ(r->offset, 42);
  EXPECT_FALSE(as.Resolve(base + 4096).has_value());  // one past the end
  EXPECT_FALSE(as.Resolve(base - 1).has_value());
}

TEST(AddressSpace, CheckReflectsMasterAfterSync) {
  SegmentImage img(Meta(1, 512), 0);
  AddressSpace as;
  VAddr base = as.Attach(&img, std::nullopt, true).value();
  auto r = as.Resolve(base).value();
  EXPECT_EQ(as.Check(r, false), Access::kReadFault);
  EXPECT_EQ(as.Check(r, true), Access::kWriteFault);

  img.InstallPage(0, PageBytes{}, false, 0, 0);
  // Process PTEs are stale until the lazy remap runs.
  EXPECT_EQ(as.Check(r, false), Access::kReadFault);
  as.SyncFromMaster();
  EXPECT_EQ(as.Check(r, false), Access::kOk);
  EXPECT_EQ(as.Check(r, true), Access::kWriteFault);

  img.UpgradePage(0, 0, 0);
  as.SyncFromMaster();
  EXPECT_EQ(as.Check(r, true), Access::kOk);
}

TEST(AddressSpace, ReadOnlyAttachNeverWritable) {
  SegmentImage img(Meta(1, 512), 0);
  img.InstallPage(0, PageBytes{}, true, 0, 0);
  AddressSpace as;
  VAddr base = as.Attach(&img, std::nullopt, /*read_write=*/false).value();
  as.SyncFromMaster();
  auto r = as.Resolve(base).value();
  EXPECT_EQ(as.Check(r, false), Access::kOk);
  EXPECT_EQ(as.Check(r, true), Access::kNoWritePermission);
}

TEST(AddressSpace, DetachRemovesTranslation) {
  SegmentImage img(Meta(1, 512), 0);
  AddressSpace as;
  VAddr base = as.Attach(&img, std::nullopt, true).value();
  EXPECT_TRUE(as.IsAttached(1));
  EXPECT_EQ(as.Detach(base), &img);
  EXPECT_FALSE(as.IsAttached(1));
  EXPECT_FALSE(as.Resolve(base).has_value());
  EXPECT_EQ(as.Detach(base), nullptr);
  EXPECT_EQ(as.TotalSharedPages(), 0);
}

TEST(AddressSpace, AttachRespectsSegmentWritePerms) {
  SegmentMeta meta = Meta(1, 512);
  meta.perms.write = false;
  SegmentImage img(meta, 0);
  img.InstallPage(0, PageBytes{}, false, 0, 0);
  AddressSpace as;
  VAddr base = as.Attach(&img, std::nullopt, /*read_write=*/true).value();
  as.SyncFromMaster();
  auto r = as.Resolve(base).value();
  // The segment itself forbids writing; the attach degrades to read-only.
  EXPECT_EQ(as.Check(r, true), Access::kNoWritePermission);
}

}  // namespace
