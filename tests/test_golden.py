"""Byte-identity of Hasse graph output against digests pinned in a table.

Each row is (family, alphabet bound, max rank, sha256 of ``to_json()``,
sha256 of ``to_dot()``).  The digests were recorded from the reduction-based
builder that every family used before the closed-form covers; any change to
vertices, labels, edge sets or their order shows up here.  The command line
writes the same text without building the graph, and must print exactly the
record's text plus a newline.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncposet import PosetHandle, cli, hasse

GOLDEN = [
    ("nc", 1, 0, "f775368f492b809f4cd360db7b035559892dd95ca188cdf621dc21a1e167addd", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("nc", 1, 1, "6fcefcd894637ad2a9e0098c2e7b0b5a72a688d5b1dc26a9a9091585f3c51ae3", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("nc", 1, 2, "8b3b141c483b02cfae7d466e4a3e5de18f9301888f04507279d610a5c8c3dcb2", "0431ddaed7ef466af991650caaf45ddc491169bb363bd601f71e873e379bec1b"),
    ("nc", 1, 5, "3b09916382a98051330a4d50c67778548f799bfb2995c93fccf238e9fefe9d62", "3eb7b7dcb6c2b934c1d11629f8446bdb1c4d26b082cbbb34907b7bc533332de1"),
    ("nc", 1, 8, "843bf16683647e4a0068f09c08038611f59409338d74373acdbe98a899ddc230", "c80c834b6f3b13cd148efa015cb0aaf84ee670bd4fc0ed853a0e666ed9342b20"),
    ("nc", 2, 0, "96fad27b72275465efb3dd0119617ce3a0f39df6bce4346d7d1535cd12252faa", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("nc", 2, 1, "dfdb442226f1ac7e01c1b523526f03eb0edc93f6a43165a50cbd237b98fe50b3", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("nc", 2, 2, "1d6e48443dc9ab8489860168fb7e21bac766d69e4a582fb806b7855cd6ddba03", "28f96da4eabed6feb37417db26ed3c519ca4c585417548070b087d8d9330191e"),
    ("nc", 2, 5, "c696a7f22987dec4b99a348c5747dbcb6d4d7533552ca88bb2b677f1246bbcaf", "0463b2b69b1cd7e8b433b21bb310cf3b5576f679edf6ad5262dc918c50cfc2be"),
    ("nc", 2, 8, "0d20449939236f721ece12e738698d72720dcc611db0a2e61a82a54156d1a8da", "edd9dbf9586916e21ba88eeba91420e33e3b2419a959a096bb23b1fc2b86a1aa"),
    ("nc", 3, 0, "699297e3508ba3124c0ee3a9649db90256ec7ca186380f23f01f83671e73d242", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("nc", 3, 1, "327a2babfddf3dd3a0c6c18d3e7dad0b317f95ac38265b745ef3314299fc10b3", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("nc", 3, 2, "740f72ffeb8626efe830b9474661fdfa1cb9e51104913c2350323106cc534453", "28f96da4eabed6feb37417db26ed3c519ca4c585417548070b087d8d9330191e"),
    ("nc", 3, 5, "39e076d298ef0f69242be60c674854a748a6b58398fbbd08b2a39e3c1d589ace", "57d34e67b19a1ee1f0faecce80ae3dbb7ba9cd6df1fe789bd7902dfe7ed62257"),
    ("nc", 3, 8, "eef162efb10714468ec4998ea9fea3729eee5a17591ce6bbe30f61fa7546368c", "24d7b069be0c2f9c00988905d885fb85e6d3bdb986251b97c161d1ebdf4f197c"),
    ("nc", 4, 0, "c67b98c9fa3e668cbde87baef4ba330889328024355f4e549a918c1b2b7436f5", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("nc", 4, 1, "f525fc2c288c5ece1185defcfa1640d9e8ed422cf8ecb7c692f018a0d6d2956f", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("nc", 4, 2, "ae3513b7d13412c6b87223c170631a3f1b86c39d5ddba14f04738c8ae29fd454", "28f96da4eabed6feb37417db26ed3c519ca4c585417548070b087d8d9330191e"),
    ("nc", 4, 5, "5b41bd66a7168aa967a04461d70fd943b8e15a7f32f82fd5e74bdf86260136db", "1ec2f48f41b0a607870838f2e2053f9f0662cb2718f30d5d075b09374cc4f137"),
    ("nc", 4, 8, "ec394ab8cf4d363a251b2dd75ac529775cea474297dd50dd494aed1c34a1aa8c", "b634d07445ede37ea7e799239f341a59eccfdec3dcedbbfc8f57f68e91e3b17e"),
    ("nc", None, 0, "463f4d629e8c028286c40e52d8567013f3f8963e4cd6fa88cd6ca8e2625c3405", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("nc", None, 1, "0f75471255c32e50e0eef08a10cabb0d7a3a97c9b452e35069670314f2ba7639", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("nc", None, 2, "6d9fec8ff5e336f3dec7b55b587942728217f357ceb495967dac4d37dc0e7ab9", "28f96da4eabed6feb37417db26ed3c519ca4c585417548070b087d8d9330191e"),
    ("nc", None, 5, "a4ad94e69d6a539e4d1d731f006cc49008539bbc62a267489038f2d4f096054f", "5bd70fa0bcf26bf9e87ebeee187badf5e4053e6e453355ffc2be51692b8921ac"),
    ("nc", None, 8, "d06df6dac49a956aac30eddc99fa5fffb1907c31ba98a0f72197daa961a597ff", "c8979cc06882a56a3748fdfd15a6967592ae85db99c1cf9d75c673bdf647b479"),
    ("q", 1, 0, "98652784fc1c5e9f732afb5c6f58d78057a38b88e61eca15f4199b59b0f58639", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("q", 1, 1, "275b11338ca1ab23ca3d86c144d12ffc87da85426e0017d0c55f360a458839e7", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("q", 1, 2, "9b6ddccded56a020c9ea4a71cea966a5cbbdc6b8344025576dd107e0c4d6768c", "0431ddaed7ef466af991650caaf45ddc491169bb363bd601f71e873e379bec1b"),
    ("q", 1, 5, "54bb6a134ee214bfcd4535a07a7a8f4503764251ef8fa1fcd6beee4d980d2817", "3eb7b7dcb6c2b934c1d11629f8446bdb1c4d26b082cbbb34907b7bc533332de1"),
    ("q", 1, 8, "7e957bd2602a4725ea1734ad58e3dfe2cd0ac6ae57a4b4aec729ba04f664ca6f", "c80c834b6f3b13cd148efa015cb0aaf84ee670bd4fc0ed853a0e666ed9342b20"),
    ("q", 2, 0, "60bc9f22598dba833163bbdf6800d6c0eea6233f9b5c52cb2bb2646e25f74af6", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("q", 2, 1, "2ffb8ecd3a324161b827e6f6ed16c227b13c4ce3005acf7dd4c6a860c0db52aa", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("q", 2, 2, "1ba6772fe174a2702a32b48754c4bf2c3b4a9616818485f01b1545ba1264777c", "28f96da4eabed6feb37417db26ed3c519ca4c585417548070b087d8d9330191e"),
    ("q", 2, 5, "2cea713b24af54f63008a415ef44cc08d6f8720880bb7891a659cc972be7b621", "809a720900f766abe5693272416845bb87cd2d8edde455718ab65e48f8d1faea"),
    ("q", 2, 8, "d947596be9635fdd9ade5e4979adb7ac3e3b8d0ccead46bda38a4c4e03e5af15", "fbf1a6920c4d43a70f97ad7ecf89977b77c52d4545d49d9b9669329abacc4cde"),
    ("q", 3, 0, "86736bea53d071b5947ad518bae5e97347e09c4e0048a4ef552f4c2e43867057", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("q", 3, 1, "186b1f1720981ce2476cf880400913b69488744da5127dce15b7ac623c7fdeba", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("q", 3, 2, "812a1b05305c9cd144bd319fd3182cdfaa4587450befbb78a8cccfd725e611b6", "28f96da4eabed6feb37417db26ed3c519ca4c585417548070b087d8d9330191e"),
    ("q", 3, 5, "12235f954a3560b56d83706c97ed11b29b1591fde9c1d752e40c237df659ac65", "ea40bfab6a0b7ac85bf542dd835d0c22983d234221908a955367f1ca369e09e9"),
    ("q", 3, 8, "09e11beb9e15fd1f802750b0c51549f1efbcd71ded7483750f60fdde7294b2c4", "d05cb52555c6b2c96f12d20276b955f9e2123e580079db644d527a6b8361033e"),
    ("q", 4, 0, "91c8fce08f0d6beeccb4ff4fbe03e4cca99121d682ca2ebfc847635f25fd0918", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("q", 4, 1, "03cee2c4a43ed81f65e476005e37e43c61fbe83facbc59a55c3d4d1c5c468842", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("q", 4, 2, "c3344f305b71979059834516bbed08ee531038beb88d60a1866db7a6ab20483f", "28f96da4eabed6feb37417db26ed3c519ca4c585417548070b087d8d9330191e"),
    ("q", 4, 5, "ad8463cce2336e0723bc4c6356d31c9ad2d41365c01c365d980e460801d94aec", "fa8916674328b4a2fd943d43ae71acbae69d63a200ed2d6a7233d2f62c28fe5a"),
    ("q", 4, 8, "57a6b44a4e68e9fe5348d700d941e4743e69a0970b11ea8edced0b8a16df3a4c", "72a06d26b207639aa36163ffaea461c5011be323234cf54b1cf818605797be3e"),
    ("q", None, 0, "7b36ba6834445c1a46a4501103cf5a21a621245ff135d68a7baf0fc4a06127be", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("q", None, 1, "c1f74d0a75eaf9839e7911277689caaad4e3938da64014301e8282015a5a70b8", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("q", None, 2, "a33474474ca66f9ef4e008d2d81afd11d22b7e0994740c3a0314185b3b6b8e87", "28f96da4eabed6feb37417db26ed3c519ca4c585417548070b087d8d9330191e"),
    ("q", None, 5, "58b3195dee3841d4d1c9fe87a66078c6a5dc796db0e0645df688a30eeb379c31", "4aa0a40e4dd05056b89c42c8aa2145ee222f75a7eb9e26e40c4d37e4a8ddc461"),
    ("q", None, 8, "4780ecb0d96dc21a8f6b800296ffdbd48f513fff4a855d5d2af97bda7b2e0fa2", "652c78a58e5987bfe6e9762e666a6591ef43894c8f629e0e5001a8536e45ef61"),
    ("p", 1, 0, "89828d3fcb5ad0dd1d6a9d33b92dc1c3f8c79bfcd68745ce9be788751c8371e7", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("p", 1, 1, "08737a9e8d023d5a3d9229085d6a2ddab179146ace1762c0d43b588d60abeb90", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("p", 1, 2, "1b62d35a0b06a34d6bf9afd281e14a311cecfb647e589cde932e93ef485d6ef1", "0431ddaed7ef466af991650caaf45ddc491169bb363bd601f71e873e379bec1b"),
    ("p", 1, 5, "ac8665682c1a5eb593f59d9b13821bbd1199f01b18df664b6a1383042d8051cb", "3eb7b7dcb6c2b934c1d11629f8446bdb1c4d26b082cbbb34907b7bc533332de1"),
    ("p", 1, 8, "accec563b769977b1a22ba1146a1e2ef5d85111174d32ff3bbd87f6685a92d8c", "c80c834b6f3b13cd148efa015cb0aaf84ee670bd4fc0ed853a0e666ed9342b20"),
    ("p", 2, 0, "2129202a1721c42e89afcd7b913249b00cc6f9d95af9258526699942552e7b40", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("p", 2, 1, "8c2f85e52c48a8c94268f42a7301c502bef028ddb6b44b98e710a304edb6fb30", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("p", 2, 2, "28acd91c88653e388267e0fc841c7fd25b795f1f577d5a7bf367fe90e786ae49", "ef075cef515fe1533dee0e90d220a1895ae0a69c59afae81d8a0e9f59b49f11a"),
    ("p", 2, 5, "942716c167c79ecf0117507bbdff50c075fe0d03de7d263bf9e3f3cbf609f54c", "69edb964020604c1614a8d4be2d98029ce0d8b3286038dee448fb2a50e6f2cf3"),
    ("p", 2, 8, "1467e936d7e09048e3cb69ec2d3ccf8ba7522e19b5bbe1f9833e3d5144152f60", "d305de9a4dac645be65b1a0640a468e24da6ca3de2c50b16ddf1d410099e485b"),
    ("p", 3, 0, "31438f9f6dbfdacddd806c2a1d1261c1572041494ed425388b00e591f0b69a75", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("p", 3, 1, "7e3366be257f86b5196186d42bb4c7161176933de5a4f594b721fe9b5b9b9257", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("p", 3, 2, "cda7632ca97370401ec94681ef36b375df369590af53ca8b78a990d6ff79c77e", "ef075cef515fe1533dee0e90d220a1895ae0a69c59afae81d8a0e9f59b49f11a"),
    ("p", 3, 5, "af3556532d4df0a7ce06421ec4e36bd769ea4fad49d5910d59f9cb920be4cc2d", "fafd07216bf9a130fb37b167540a1294286f0f9b475fbdb3c1dbfa71bd7e94b0"),
    ("p", 3, 8, "4539c00be842a8f6fd53fdf27101ae98a63250f4315b0395d81c4a8e69c06af9", "ac4e6cc39d38c606b8d3e9ab34d2b4e1d4ec1fdd35244c76d5b86fecdb4fd9d0"),
    ("p", 4, 0, "c38e893f96c3992c7efe42defb409c044f743a82cc2412b33726d6ee5de40df1", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("p", 4, 1, "499a47b859c59051053633e719827b62187537e8a5badf60b5dc29219e74c41a", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("p", 4, 2, "70ecf002c7b6d0a79d51ba5906c234fec0d1d8c09a82b10bcd1f83b16b285ead", "ef075cef515fe1533dee0e90d220a1895ae0a69c59afae81d8a0e9f59b49f11a"),
    ("p", 4, 5, "d05867983cf8951a6c4526766b7a404acb1ed73d7c8977d92225657732c7e74f", "94a64db2951c372966975179f857c00976c9a1bd222947a025a6e4d93fa94f5d"),
    ("p", 4, 8, "e83324ee42813fa3859c5177e4a183f0a39d77b1b3da1dbf6b1eb95b9f3ffe2a", "de460f4d0f144ce3cbe9c8707533299ec62362bb5c154d50d0c109a49d78034c"),
    ("p", None, 0, "fba60c881519956456fa4c30aed645f7499f9dd77dcd5664c7e5eb2c880f35ac", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("p", None, 1, "ca8e260add5cc86d6998fcb49246b6567aa13ed0a8275377921fa74095cff8dc", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("p", None, 2, "01cc20897208aa1991d6b11a0447452dfc0117d9fafa8548f7ce31dd504d2484", "ef075cef515fe1533dee0e90d220a1895ae0a69c59afae81d8a0e9f59b49f11a"),
    ("p", None, 5, "0fb546a5375d0d9bb7701db309cab276784f96433600334396f3351c03b7e31d", "286547d8111967db89b940881d54b658f57c50cf329a78bbf455411a843cfe01"),
    ("p", None, 8, "6a6e75eabcfc3c727349997d667226770624c842832e57948aeff650c2d205b6", "04b615040f13f09376fbdcbbeea45e2bb4bdaa131ed127b20eef7c0a27b920a1"),
    ("comm", 1, 0, "cf38c4c56831c42781abdf501807da788d837045f3fc2c86242cb2d81188c86e", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("comm", 1, 1, "20dd384ff11b93a78610244d2afbbfb9f0ed738d605cd7bd85eac3d027f563c0", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("comm", 1, 2, "a20a18002af1fed777284744924f1d1e0ff642f6c787113318aee07a1c846edc", "279af1687f2d6cbedd91ffd306dd85ccc1d544477343668bfdfb9c2ee2cf208f"),
    ("comm", 1, 5, "860940261c95798ffdaba0287ea2e0e8ecafed0d33f869ac204196e3669bac7c", "3c6c1c8a8bcc04fceeb90bfa7b209b727fd215fd3d71f9ba1b52f7176a8352bf"),
    ("comm", 1, 8, "47e02023f1bc2affc054f2214b3c77e10eddcebd65e45080a1d5d67604f2bd08", "f3405a9ed53ec0c03d834d8eff22465edb14a99ff168e0c4adb0d23701167477"),
    ("comm", 2, 0, "041b095130568925f6217585b45fceed19d8a48613086bbaf1830b87d21ea12e", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("comm", 2, 1, "d064eedbda43cccf922ff8ab3d5718e69a978b33926055f51f1764b1af6da9d7", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("comm", 2, 2, "02b59ca747f78cbf899cc38fb60089115a73aad2e893c889d39c51bdd2cdf9c2", "f5b1e4b59bc1054c6b53c2eb5e6314e24518d7d836cc376b3236d024ff06c0bd"),
    ("comm", 2, 5, "9e381a311088128fb533fddd364bd221e4036e8284257eb98b61468aca80e397", "87f915cee1807652c833bf8394123950f5719ef78736c91b87edfc0522040bd7"),
    ("comm", 2, 8, "274e6af75d184775e232e33e0dc85ea9c838a1985134024e4f9c6383472522c8", "5a280d4a904106f5a6909dfceb19f94c77ae153b5a4629bd208d8f9ab0cd2bd2"),
    ("comm", 3, 0, "1a27cd19bd00a2faaeb15e59b4b4757d916b5431178f64755db5352caa97170f", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("comm", 3, 1, "667bc549788c571e81de9964246b09d6be0c2ff0c40882126e52a4adc9492364", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("comm", 3, 2, "9c72d097aa85dd3e531a60fd4990098f49fbf02319387fed69fe5bbe9b9da62c", "f5b1e4b59bc1054c6b53c2eb5e6314e24518d7d836cc376b3236d024ff06c0bd"),
    ("comm", 3, 5, "6620977bdbcf1d99acfdd5ad1806eadfe514b8d2b4a1366e0a5d43517d300d03", "06b4d553f7cd3080b21900cf2c8b2acdf1e17284ccb51e411337bc3e7741f651"),
    ("comm", 3, 8, "c0437a01ceb4abb03fd26e40b628a2e42837c37a4985d6d1817f26b348464120", "fc69ee4363e634a71caad4418f6a9db76793fb156bb688e9a6d4a39ae196b44d"),
    ("comm", 4, 0, "a577a10d6ebc8a48c900c60973c27477b798ebcc6279be6b2d5d1339e4f67219", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("comm", 4, 1, "b1f97eaebbaf7f49e149c680a513124a28a29d883d55b15c892e1b62360820a2", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("comm", 4, 2, "00a47a5750ec6c6424935d074eb4c38ea8cce4d4eed0ce9fea58cb552ab18c5b", "f5b1e4b59bc1054c6b53c2eb5e6314e24518d7d836cc376b3236d024ff06c0bd"),
    ("comm", 4, 5, "db08d22705a597169c51cbdd6dd87ecd3d0455175b0b43053ca9a2cd2f45b134", "14cbc4d8861ea0f57962ee1e70c6ffb9bd550158d13daa7f62d56916f216c721"),
    ("comm", 4, 8, "1a9a39021e49f1315fe7db347a61690063687ac0920efc03174290806ec1b220", "e05bb459b05ad14de0b27d33ac3b7ca3dbc8d0efab7a3686c0308944ef4ecf49"),
    ("comm", None, 0, "be4a9165e88eae01224b81c76bf19ba4c5d54eef3153315c80c0a009971067d6", "a976e63275c0408a3366cff37aaa33a6eb3209a9324e515f24958a676b42e8d8"),
    ("comm", None, 1, "c06f54390c9ce44fc72d23ad4f1e2648e3b97285bf8bfdf50537000728fd727f", "8705d2e9f65b0fdee774373039439acde45ae26adfe2f6da68edd61239adbcd2"),
    ("comm", None, 2, "203d6935e776ce88da10a416fa2256bfd1aaff4e265cfff60bbd8f513c40b46a", "f5b1e4b59bc1054c6b53c2eb5e6314e24518d7d836cc376b3236d024ff06c0bd"),
    ("comm", None, 5, "487c5bca2f6b362b204bf83cb88f2285748d9906888339c062666df30ef4bed3", "684e11708a2d7597522a6890c8a0133db988f0a59019f8d9b50a5ad0b09aad08"),
    ("comm", None, 8, "eb3378daba57d049cba5b345534e8687c41af5d40c70f006ae445435203fcfcd", "bc43ef9f4d713a6f421a0d63b07a1101800647d609d88318d6203b6b16666cbe"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family, n, max_rank, json_digest, dot_digest", GOLDEN)
def test_hasse_output_matches_golden_digests(family, n, max_rank, json_digest, dot_digest):
    graph = hasse(PosetHandle(family, n), max_rank)
    assert _sha256(graph.to_json()) == json_digest
    assert _sha256(graph.to_dot()) == dot_digest


def test_golden_table_covers_every_family_and_bound():
    assert {(family, n) for family, n, *_ in GOLDEN} == {
        (family, n) for family in ("nc", "q", "p", "comm") for n in (1, 2, 3, 4, None)
    }


@pytest.mark.parametrize("family, n, max_rank", [row[:3] for row in GOLDEN])
def test_to_json_matches_indented_json_dumps(family, n, max_rank):
    graph = hasse(PosetHandle(family, n), max_rank)
    assert graph.to_json() == json.dumps(graph.to_json_dict(), indent=2)


def _cli_text(family, n, max_rank, form):
    """The exit code, stdout and stderr of ``ncposet hasse`` for the graph."""
    n_args = [] if n is None else ["-n", str(n)]
    argv = ["hasse", "--poset", family, *n_args, "--max-rank", str(max_rank), "--format", form]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("family, n, max_rank, json_digest, dot_digest", GOLDEN)
def test_command_line_prints_the_records_text(family, n, max_rank, json_digest, dot_digest):
    # the command line runs first, on an empty store; the record then reads the levels it kept
    printed = [_cli_text(family, n, max_rank, form) for form in ("json", "dot")]
    graph = hasse(PosetHandle(family, n), max_rank)
    assert printed == [(0, graph.to_json() + "\n", ""), (0, graph.to_dot() + "\n", "")]
    assert [_sha256(out[:-1]) for _, out, _ in printed] == [json_digest, dot_digest]


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["nc", "q", "p", "comm"]),
    n=st.sampled_from([1, 2, 3, 4, None]),
    max_rank=st.integers(0, 9),
    form=st.sampled_from(["json", "dot"]),
)
def test_command_line_text_matches_the_record_on_drawn_ranges(family, n, max_rank, form):
    graph = hasse(PosetHandle(family, n), max_rank)
    text = graph.to_json() if form == "json" else graph.to_dot()
    assert _cli_text(family, n, max_rank, form) == (0, text + "\n", "")
